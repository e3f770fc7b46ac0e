// Typed, chunked columnar tables: the one data layout of the execution
// engine. A Table is its Schema plus immutable, reference-counted chunks;
// each chunk holds one typed Vector per column:
//   - kInt64 / kDouble cells in a flat std::vector,
//   - kString cells as uint32 codes into a shared Dictionary (TPC-H flags,
//     modes and segments have a handful of distinct values),
//   - a validity bitmap only where the vector holds a NULL,
//   - kNull vectors (every cell NULL) carry no payload at all.
// Copying a Table copies chunk references, never cells, so concatenation,
// replication and the write-ahead lineage log share storage.
//
// The row engine and the tests read and write cells as exec::Value through
// the row view (Table::GetRow / TableBuilder::AppendRow); the vectorized
// engine reads the typed vectors directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace xdbft::exec {

/// \brief Rows per chunk written by TableBuilder.
inline constexpr size_t kChunkRows = size_t{1} << 16;

/// \brief Distinct strings of a kString vector; a code indexes `values`.
/// Every string appears at most once, so within one dictionary equal codes
/// mean equal strings. Immutable once a table referencing it is built.
struct Dictionary {
  std::vector<std::string> values;
};

/// \brief One typed column of a chunk, or an evaluated expression.
struct Vector {
  ValueType type = ValueType::kNull;
  size_t size = 0;
  std::vector<int64_t> i64;     // kInt64
  std::vector<double> f64;      // kDouble
  std::vector<uint32_t> codes;  // kString
  std::shared_ptr<const Dictionary> dict;  // kString
  /// Bit i set = cell i is non-NULL. Empty: no NULLs (kNull: all NULL).
  std::vector<uint64_t> validity;

  bool has_nulls() const {
    return type == ValueType::kNull || !validity.empty();
  }
  bool IsNull(size_t i) const {
    if (type == ValueType::kNull) return true;
    return !validity.empty() && ((validity[i >> 6] >> (i & 63)) & 1) == 0;
  }
  std::string_view StringAt(size_t i) const { return dict->values[codes[i]]; }
  /// \brief Cell i as a Value (the row view).
  Value GetValue(size_t i) const;
  /// \brief GetValue into an existing Value, reusing its string buffer.
  void ReadInto(size_t i, Value* out) const {
    if (IsNull(i)) {
      out->SetNull();
      return;
    }
    switch (type) {
      case ValueType::kInt64:
        out->SetInt64(i64[i]);
        return;
      case ValueType::kDouble:
        out->SetDouble(f64[i]);
        return;
      case ValueType::kString:
        out->AssignString(StringAt(i));
        return;
      case ValueType::kNull:
        return;
    }
  }
  /// \brief Drop every cell, keeping capacity and the type.
  void Clear();
  /// \brief Record cell `size` (already pushed to the payload) as valid or
  /// NULL and count it. The bitmap is created at the first NULL.
  void PushValidity(bool valid);
};

/// \brief Append src[idx[0..n)] to `out`, a vector of src's type: payload
/// and validity. String codes are copied as they are, so `out` must read
/// them through src's dictionary.
void AppendGathered(const Vector& src, const int32_t* idx, size_t n,
                    Vector* out);

/// \brief Per-source-dictionary code maps, filled lazily by the caller:
/// For(dict)[code] starts at -1 for every code of `dict`.
class DictTranslations {
 public:
  std::vector<int64_t>& For(const std::shared_ptr<const Dictionary>& dict);

 private:
  std::vector<std::pair<std::shared_ptr<const Dictionary>,
                        std::vector<int64_t>>>
      maps_;
};

/// \brief `rows` rows of aligned column vectors. Immutable once shared.
struct Chunk {
  size_t num_rows = 0;
  std::vector<Vector> columns;
};

using ChunkPtr = std::shared_ptr<const Chunk>;

/// \brief In-memory table: schema plus shared, immutable chunks.
struct Table {
  Schema schema;

  /// \brief Build from rows, checking every cell against its column's
  /// declared type. A kNull column takes the type of its first non-NULL
  /// cell; any other cell type returns InvalidArgument.
  static Result<Table> FromRows(Schema schema, const std::vector<Row>& rows);

  size_t num_rows() const { return num_rows_; }
  const std::vector<ChunkPtr>& chunks() const { return chunks_; }

  /// \brief Append a chunk (shared, not copied); empty chunks are skipped.
  void AppendChunk(ChunkPtr chunk);
  /// \brief Append every chunk of `other` (shared, not copied).
  void Append(const Table& other);

  /// \brief Row view: cell (row, column) / row `row` as Values.
  Value GetValue(size_t row, int column) const;
  Row GetRow(size_t row) const;
  std::vector<Row> ToRows() const;

  /// \brief The whole table as one chunk (shared when it already is one).
  ChunkPtr Flatten() const;

 private:
  std::vector<ChunkPtr> chunks_;
  std::vector<size_t> offsets_;  // first row of each chunk
  size_t num_rows_ = 0;
};

/// \brief Appends cells to one typed vector. A builder declared kNull
/// takes the type of the first non-NULL cell it receives. String cells are
/// encoded into a dictionary the builder owns, or, when every string comes
/// from one source dictionary, that dictionary is shared instead.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(ValueType type = ValueType::kNull);

  ValueType type() const { return type_; }

  /// \brief Append one cell; InvalidArgument when its type differs from
  /// the builder's.
  Status Append(const Value& v);
  // Typed appends; the builder's type must match (or still be kNull).
  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  /// \brief Append src[idx[0..n)]; InvalidArgument on a type mismatch.
  Status AppendGather(const Vector& src, const int32_t* idx, size_t n);

  /// \brief The vector built so far; the builder restarts empty (string
  /// columns keep their dictionary, which later vectors share).
  Vector Finish();

 private:
  Status Adopt(ValueType t);
  uint32_t Encode(std::string_view s);
  void OwnDictionary();

  ValueType type_;
  Vector vec_;
  // kString: exactly one of `shared_` (codes are src codes) and `own_`.
  std::shared_ptr<const Dictionary> shared_;
  std::shared_ptr<Dictionary> own_;
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, SvHash, std::equal_to<>> index_;
  // Codes of each source dictionary in `own_`.
  DictTranslations translations_;
};

/// \brief Builds a Table column by column, sealing a chunk every
/// kChunkRows rows. Typed appends go through column(c) followed by
/// EndRow(); AppendRow type-checks a whole row.
class TableBuilder {
 public:
  explicit TableBuilder(Schema schema);

  ColumnBuilder& column(int c) { return cols_[static_cast<size_t>(c)]; }
  void EndRow();
  Status AppendRow(const Row& row);
  /// \brief Append rows idx[0..n) of aligned `columns`.
  Status AppendGather(const std::vector<const Vector*>& columns,
                      const int32_t* idx, size_t n);

  /// \brief The table built so far (schema types resolved from the cells
  /// where declared kNull).
  Table Finish();

 private:
  void SealChunk();

  Schema schema_;
  std::vector<ColumnBuilder> cols_;
  size_t pending_ = 0;
  Table out_;
};

/// \brief Value::Hash of cell i of `v`, from the typed cell.
size_t CellHash(const Vector& v, size_t i);

/// \brief Split `table` into `n` tables by the hash of column `key`: row r
/// goes to partition Value::Hash(key cell) % n, rows keep their order.
/// InvalidArgument when `key` is not a column of `table` or n is 0.
Result<std::vector<Table>> HashPartition(const Table& table, int key,
                                         size_t n);

/// \brief Partition `partition` of HashPartition(table, key, n) alone.
Result<Table> HashSlice(const Table& table, int key, size_t partition,
                        size_t n);

/// \brief Exact cell equality: same type tag and value bits (int64 5 and
/// double 5.0 are *different* here, unlike Value::operator==; -0.0 differs
/// from 0.0, identical NaNs match).
bool BitIdenticalValue(const Value& a, const Value& b);
/// \brief Same row count, same column count, every cell BitIdenticalValue
/// (chunk boundaries and dictionaries do not matter). The bit-identity
/// predicate of the row-vs-batch crosscheck and the thread-count
/// determinism checks.
bool BitIdenticalTables(const Table& a, const Table& b);

}  // namespace xdbft::exec
