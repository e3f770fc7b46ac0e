// Batch: the column-chunk unit of the vectorized execution engine. A
// batch holds up to kDefaultBatchRows rows of aligned column vectors;
// operators exchange batches instead of single rows so per-row virtual
// dispatch, row allocation and expression-tree recursion are amortized
// over ~1024 values at a time (the morsel-driven design of pipeline.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace xdbft::exec {

struct Table;  // operators.h

/// \brief Target rows per batch / per morsel (DuckDB-style vector size).
inline constexpr size_t kDefaultBatchRows = 1024;

/// \brief A chunk of rows in columnar layout: `columns[c][r]` is the value
/// of column c in row r; every column vector has exactly `num_rows()`
/// entries. Batches do not carry a schema — producers and consumers agree
/// on column order the same way row operators agree on Row layout.
struct Batch {
  std::vector<std::vector<Value>> columns;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].size();
  }
  size_t num_columns() const { return columns.size(); }

  /// \brief Reset to `ncols` empty columns, keeping capacity.
  void Reset(size_t ncols) {
    columns.resize(ncols);
    for (auto& c : columns) c.clear();
  }

  /// \brief Reserve room for `nrows` in every column.
  void Reserve(size_t nrows) {
    for (auto& c : columns) c.reserve(nrows);
  }
};

/// \brief Transpose rows [begin, end) of `table` into `out` (columns
/// reset). The canonical morsel loader of the scan source.
void BatchFromTable(const Table& table, size_t begin, size_t end,
                    Batch* out);

/// \brief Append every row of `batch` to `table->rows`, consuming the
/// batch's values (strings are moved, not copied).
void AppendBatchToTable(Batch&& batch, Table* table);

/// \brief Exact row equality: same row count, same per-cell type tag and
/// value bits (int64 5 and double 5.0 are *different* here, unlike
/// Value::operator==). The bit-identity predicate of the row-vs-batch
/// crosscheck and the thread-count determinism checks.
bool BitIdenticalValue(const Value& a, const Value& b);
bool BitIdenticalTables(const Table& a, const Table& b);

}  // namespace xdbft::exec
