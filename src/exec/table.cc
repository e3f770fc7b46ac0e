#include "exec/table.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace xdbft::exec {

Value Vector::GetValue(size_t i) const {
  if (IsNull(i)) return Value();
  switch (type) {
    case ValueType::kInt64:
      return Value(i64[i]);
    case ValueType::kDouble:
      return Value(f64[i]);
    case ValueType::kString:
      return Value(std::string(StringAt(i)));
    case ValueType::kNull:
      break;
  }
  return Value();
}

void Vector::Clear() {
  size = 0;
  i64.clear();
  f64.clear();
  codes.clear();
  validity.clear();
}

void Vector::PushValidity(bool valid) {
  const size_t i = size;
  if (valid) {
    if (!validity.empty()) {
      if ((i & 63) == 0) validity.push_back(0);
      validity[i >> 6] |= uint64_t{1} << (i & 63);
    }
  } else if (type != ValueType::kNull) {
    if (validity.empty()) {
      // First NULL: every earlier cell was valid.
      validity.assign((i + 63) / 64, ~uint64_t{0});
      if ((i & 63) != 0) validity.back() = (uint64_t{1} << (i & 63)) - 1;
    }
    if ((i & 63) == 0) validity.push_back(0);
  }
  ++size;
}

void AppendGathered(const Vector& src, const int32_t* idx, size_t n,
                    Vector* out) {
  const auto gather = [&](const auto& in, auto* dst) {
    const size_t at = dst->size();
    dst->resize(at + n);
    auto* o = dst->data() + at;
    for (size_t i = 0; i < n; ++i) o[i] = in[static_cast<size_t>(idx[i])];
  };
  switch (src.type) {
    case ValueType::kInt64:
      gather(src.i64, &out->i64);
      break;
    case ValueType::kDouble:
      gather(src.f64, &out->f64);
      break;
    case ValueType::kString:
      gather(src.codes, &out->codes);
      break;
    case ValueType::kNull:
      break;
  }
  // The bitmap stays absent while nothing is NULL.
  if (src.validity.empty() && out->validity.empty()) {
    out->size += n;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out->PushValidity(!src.IsNull(static_cast<size_t>(idx[i])));
  }
}

std::vector<int64_t>& DictTranslations::For(
    const std::shared_ptr<const Dictionary>& dict) {
  for (auto& [d, codes] : maps_) {
    if (d == dict) return codes;
  }
  maps_.emplace_back(dict, std::vector<int64_t>(dict->values.size(), -1));
  return maps_.back().second;
}

// ---------------------------------------------------------------------------
// Table

Result<Table> Table::FromRows(Schema schema, const std::vector<Row>& rows) {
  TableBuilder b(std::move(schema));
  for (const Row& row : rows) XDBFT_RETURN_NOT_OK(b.AppendRow(row));
  return b.Finish();
}

void Table::AppendChunk(ChunkPtr chunk) {
  if (chunk == nullptr || chunk->num_rows == 0) return;
  offsets_.push_back(num_rows_);
  num_rows_ += chunk->num_rows;
  chunks_.push_back(std::move(chunk));
}

void Table::Append(const Table& other) {
  for (const ChunkPtr& c : other.chunks_) AppendChunk(c);
}

Value Table::GetValue(size_t row, int column) const {
  const size_t k = static_cast<size_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), row) -
      offsets_.begin() - 1);
  return chunks_[k]->columns[static_cast<size_t>(column)].GetValue(
      row - offsets_[k]);
}

Row Table::GetRow(size_t row) const {
  Row out;
  out.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out.push_back(GetValue(row, static_cast<int>(c)));
  }
  return out;
}

std::vector<Row> Table::ToRows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (const ChunkPtr& chunk : chunks_) {
    for (size_t r = 0; r < chunk->num_rows; ++r) {
      Row row;
      row.reserve(chunk->columns.size());
      for (const Vector& v : chunk->columns) row.push_back(v.GetValue(r));
      out.push_back(std::move(row));
    }
  }
  return out;
}

ChunkPtr Table::Flatten() const {
  if (chunks_.size() == 1) return chunks_[0];
  const size_t ncols = schema.num_columns();
  std::vector<ColumnBuilder> cols;
  cols.reserve(ncols);
  for (const Column& c : schema.columns()) cols.emplace_back(c.type);
  std::vector<int32_t> idx;
  for (const ChunkPtr& chunk : chunks_) {
    idx.resize(chunk->num_rows);
    for (size_t r = 0; r < idx.size(); ++r) idx[r] = static_cast<int32_t>(r);
    for (size_t c = 0; c < ncols; ++c) {
      const Status s = cols[c].AppendGather(chunk->columns[c], idx.data(),
                                            idx.size());
      XDBFT_CHECK(s.ok()) << s.ToString();
    }
  }
  auto out = std::make_shared<Chunk>();
  out->num_rows = num_rows_;
  for (auto& c : cols) out->columns.push_back(c.Finish());
  return out;
}

// ---------------------------------------------------------------------------
// ColumnBuilder

ColumnBuilder::ColumnBuilder(ValueType type) : type_(type) {
  vec_.type = type;
}

Status ColumnBuilder::Adopt(ValueType t) {
  if (t == type_ || t == ValueType::kNull) return Status::OK();
  if (type_ != ValueType::kNull) {
    return Status::InvalidArgument(std::string("cell of type ") +
                                   ValueTypeName(t) + " in a " +
                                   ValueTypeName(type_) + " column");
  }
  // Declared (or so far) kNull: every earlier cell is NULL.
  const size_t n = vec_.size;
  type_ = t;
  vec_.type = t;
  switch (t) {
    case ValueType::kInt64:
      vec_.i64.assign(n, 0);
      break;
    case ValueType::kDouble:
      vec_.f64.assign(n, 0.0);
      break;
    case ValueType::kString:
      vec_.codes.assign(n, 0);
      break;
    case ValueType::kNull:
      break;
  }
  vec_.validity.assign((n + 63) / 64, 0);
  return Status::OK();
}

void ColumnBuilder::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      vec_.i64.push_back(0);
      break;
    case ValueType::kDouble:
      vec_.f64.push_back(0.0);
      break;
    case ValueType::kString:
      vec_.codes.push_back(0);
      break;
    case ValueType::kNull:
      break;
  }
  vec_.PushValidity(false);
}

void ColumnBuilder::AppendInt64(int64_t v) {
  if (type_ != ValueType::kInt64) {
    XDBFT_CHECK(Adopt(ValueType::kInt64).ok())
        << "INT64 cell in a " << ValueTypeName(type_) << " column";
  }
  vec_.i64.push_back(v);
  vec_.PushValidity(true);
}

void ColumnBuilder::AppendDouble(double v) {
  if (type_ != ValueType::kDouble) {
    XDBFT_CHECK(Adopt(ValueType::kDouble).ok())
        << "DOUBLE cell in a " << ValueTypeName(type_) << " column";
  }
  vec_.f64.push_back(v);
  vec_.PushValidity(true);
}

void ColumnBuilder::OwnDictionary() {
  if (own_ != nullptr) return;
  own_ = std::make_shared<Dictionary>();
  if (shared_ != nullptr) {
    own_->values = shared_->values;
    for (size_t i = 0; i < own_->values.size(); ++i) {
      index_.emplace(own_->values[i], static_cast<uint32_t>(i));
    }
    shared_.reset();
  }
}

uint32_t ColumnBuilder::Encode(std::string_view s) {
  OwnDictionary();
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto code = static_cast<uint32_t>(own_->values.size());
  own_->values.emplace_back(s);
  index_.emplace(std::string(s), code);
  return code;
}

void ColumnBuilder::AppendString(std::string_view v) {
  if (type_ != ValueType::kString) {
    XDBFT_CHECK(Adopt(ValueType::kString).ok())
        << "STRING cell in a " << ValueTypeName(type_) << " column";
  }
  vec_.codes.push_back(Encode(v));
  vec_.PushValidity(true);
}

Status ColumnBuilder::Append(const Value& v) {
  XDBFT_RETURN_NOT_OK(Adopt(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      AppendNull();
      break;
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
  }
  return Status::OK();
}

Status ColumnBuilder::AppendGather(const Vector& src, const int32_t* idx,
                                   size_t n) {
  XDBFT_RETURN_NOT_OK(Adopt(src.type));
  if (src.type == ValueType::kNull) {
    for (size_t i = 0; i < n; ++i) AppendNull();
    return Status::OK();
  }
  if (type_ != ValueType::kString) {
    AppendGathered(src, idx, n, &vec_);
    return Status::OK();
  }
  // A shared dictionary with no strings means every cell so far is NULL,
  // so src's dictionary can take its place.
  if (own_ == nullptr && (shared_ == nullptr || shared_ == src.dict ||
                          shared_->values.empty())) {
    shared_ = src.dict;  // codes carry over
    AppendGathered(src, idx, n, &vec_);
    return Status::OK();
  }
  OwnDictionary();
  std::vector<int64_t>& tr = translations_.For(src.dict);
  for (size_t i = 0; i < n; ++i) {
    const auto r = static_cast<size_t>(idx[i]);
    if (src.IsNull(r)) {
      AppendNull();  // a NULL's code indexes no dictionary
      continue;
    }
    int64_t& t = tr[src.codes[r]];
    if (t < 0) t = Encode(src.dict->values[src.codes[r]]);
    vec_.codes.push_back(static_cast<uint32_t>(t));
    vec_.PushValidity(true);
  }
  return Status::OK();
}

Vector ColumnBuilder::Finish() {
  Vector out = std::move(vec_);
  if (type_ == ValueType::kString) {
    out.dict = own_ != nullptr ? own_ : shared_;
    if (out.dict == nullptr) out.dict = std::make_shared<Dictionary>();
  }
  if (type_ == ValueType::kNull) out.validity.clear();
  vec_ = Vector{};
  vec_.type = type_;
  return out;
}

// ---------------------------------------------------------------------------
// TableBuilder

TableBuilder::TableBuilder(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.num_columns());
  for (const Column& c : schema_.columns()) cols_.emplace_back(c.type);
}

void TableBuilder::EndRow() {
  if (++pending_ == kChunkRows) SealChunk();
}

Status TableBuilder::AppendRow(const Row& row) {
  if (row.size() != cols_.size()) {
    return Status::InvalidArgument(
        "row of " + std::to_string(row.size()) + " cells for a schema of " +
        std::to_string(cols_.size()) + " columns");
  }
  // Check the whole row before appending any cell, so a rejected row
  // leaves the columns aligned.
  for (size_t c = 0; c < row.size(); ++c) {
    const ValueType t = row[c].type();
    const ValueType want = cols_[c].type();
    if (t != ValueType::kNull && want != ValueType::kNull && t != want) {
      return Status::InvalidArgument(
          "column '" + schema_.column(static_cast<int>(c)).name +
          "' declared " + ValueTypeName(want) + " holds a " +
          ValueTypeName(t) + " cell at row " +
          std::to_string(out_.num_rows() + pending_));
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    XDBFT_RETURN_NOT_OK(cols_[c].Append(row[c]));
  }
  EndRow();
  return Status::OK();
}

Status TableBuilder::AppendGather(const std::vector<const Vector*>& columns,
                                  const int32_t* idx, size_t n) {
  size_t done = 0;
  while (done < n) {
    const size_t take = std::min(n - done, kChunkRows - pending_);
    for (size_t c = 0; c < cols_.size(); ++c) {
      XDBFT_RETURN_NOT_OK(
          cols_[c].AppendGather(*columns[c], idx + done, take));
    }
    done += take;
    pending_ += take;
    if (pending_ == kChunkRows) SealChunk();
  }
  return Status::OK();
}

void TableBuilder::SealChunk() {
  if (pending_ == 0) return;
  auto chunk = std::make_shared<Chunk>();
  chunk->num_rows = pending_;
  chunk->columns.reserve(cols_.size());
  for (auto& c : cols_) chunk->columns.push_back(c.Finish());
  out_.AppendChunk(std::move(chunk));
  pending_ = 0;
}

Table TableBuilder::Finish() {
  SealChunk();
  std::vector<Column> cols = schema_.columns();
  for (size_t c = 0; c < cols.size(); ++c) cols[c].type = cols_[c].type();
  out_.schema = Schema(std::move(cols));
  Table out = std::move(out_);
  out_ = Table{};
  // Fresh column builders: the finished table's dictionaries are never
  // appended to again.
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c] = ColumnBuilder(out.schema.column(static_cast<int>(c)).type);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Hash partitioning

size_t CellHash(const Vector& v, size_t i) {
  if (v.IsNull(i)) return kNullHash;
  switch (v.type) {
    case ValueType::kInt64:
      return HashInt64(v.i64[i]);
    case ValueType::kDouble:
      return HashDouble(v.f64[i]);
    case ValueType::kString:
      return HashString(v.StringAt(i));
    case ValueType::kNull:
      break;
  }
  return kNullHash;
}

namespace {

// Index lists per partition of one chunk, then one gather per partition.
// `only` < n keeps just that partition.
Result<std::vector<Table>> Split(const Table& table, int key, size_t n,
                                 size_t only) {
  if (key < 0 || static_cast<size_t>(key) >= table.schema.num_columns()) {
    return Status::InvalidArgument(
        "partition key column " + std::to_string(key) +
        " out of range for a table of " +
        std::to_string(table.schema.num_columns()) + " columns");
  }
  if (n == 0) return Status::InvalidArgument("zero partitions");
  const size_t outs = only < n ? 1 : n;
  std::vector<TableBuilder> builders;
  builders.reserve(outs);
  for (size_t p = 0; p < outs; ++p) builders.emplace_back(table.schema);
  std::vector<std::vector<int32_t>> idx(outs);
  std::vector<const Vector*> cols;
  for (const ChunkPtr& chunk : table.chunks()) {
    for (auto& l : idx) l.clear();
    const Vector& k = chunk->columns[static_cast<size_t>(key)];
    for (size_t r = 0; r < chunk->num_rows; ++r) {
      const size_t p = CellHash(k, r) % n;
      if (only >= n) {
        idx[p].push_back(static_cast<int32_t>(r));
      } else if (p == only) {
        idx[0].push_back(static_cast<int32_t>(r));
      }
    }
    cols.clear();
    for (const Vector& v : chunk->columns) cols.push_back(&v);
    for (size_t p = 0; p < outs; ++p) {
      XDBFT_RETURN_NOT_OK(
          builders[p].AppendGather(cols, idx[p].data(), idx[p].size()));
    }
  }
  std::vector<Table> out;
  out.reserve(outs);
  for (auto& b : builders) out.push_back(b.Finish());
  return out;
}

}  // namespace

Result<std::vector<Table>> HashPartition(const Table& table, int key,
                                         size_t n) {
  return Split(table, key, n, n);
}

Result<Table> HashSlice(const Table& table, int key, size_t partition,
                        size_t n) {
  XDBFT_ASSIGN_OR_RETURN(
      std::vector<Table> one,
      Split(table, key, n, partition % std::max<size_t>(n, 1)));
  return std::move(one[0]);
}

// ---------------------------------------------------------------------------
// Bit identity

bool BitIdenticalValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      const double da = a.AsDouble(), db = b.AsDouble();
      uint64_t ba = 0, bb = 0;
      std::memcpy(&ba, &da, sizeof(da));
      std::memcpy(&bb, &db, sizeof(db));
      return ba == bb;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

namespace {

bool SameCell(const Vector& a, size_t i, const Vector& b, size_t j) {
  const bool na = a.IsNull(i), nb = b.IsNull(j);
  if (na || nb) return na && nb;
  if (a.type != b.type) return false;
  switch (a.type) {
    case ValueType::kInt64:
      return a.i64[i] == b.i64[j];
    case ValueType::kDouble:
      return std::memcmp(&a.f64[i], &b.f64[j], sizeof(double)) == 0;
    case ValueType::kString:
      return (a.dict == b.dict && a.codes[i] == b.codes[j]) ||
             a.StringAt(i) == b.StringAt(j);
    case ValueType::kNull:
      break;
  }
  return true;
}

}  // namespace

bool BitIdenticalTables(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  const size_t ncols = a.schema.num_columns();
  if (ncols != b.schema.num_columns()) return false;
  size_t ca = 0, cb = 0, ra = 0, rb = 0;
  for (size_t done = 0; done < a.num_rows();) {
    while (ra == a.chunks()[ca]->num_rows) ++ca, ra = 0;
    while (rb == b.chunks()[cb]->num_rows) ++cb, rb = 0;
    const Chunk& x = *a.chunks()[ca];
    const Chunk& y = *b.chunks()[cb];
    const size_t n = std::min(x.num_rows - ra, y.num_rows - rb);
    if (x.columns.size() != ncols || y.columns.size() != ncols) return false;
    for (size_t c = 0; c < ncols; ++c) {
      for (size_t k = 0; k < n; ++k) {
        if (!SameCell(x.columns[c], ra + k, y.columns[c], rb + k)) {
          return false;
        }
      }
    }
    ra += n;
    rb += n;
    done += n;
  }
  return true;
}

}  // namespace xdbft::exec
