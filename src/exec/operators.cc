#include "exec/operators.h"

#include <algorithm>

namespace xdbft::exec {

namespace {

class ScanOperator final : public Operator {
 public:
  explicit ScanOperator(const Table* table) : table_(table) {}

  Status Open() override {
    if (table_ == nullptr) return Status::InvalidArgument("null table");
    chunk_ = 0;
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    const auto& chunks = table_->chunks();
    while (chunk_ < chunks.size() && pos_ == chunks[chunk_]->num_rows) {
      ++chunk_;
      pos_ = 0;
    }
    if (chunk_ == chunks.size()) return false;
    const Chunk& c = *chunks[chunk_];
    out->resize(c.columns.size());
    for (size_t i = 0; i < c.columns.size(); ++i) {
      c.columns[i].ReadInto(pos_, &(*out)[i]);
    }
    ++pos_;
    return true;
  }

  void Close() override {}
  const Schema& schema() const override {
    // The table is only validated in Open; a null scan must still answer
    // schema queries (parents concatenate schemas at construction time).
    static const Schema kEmpty;
    return table_ == nullptr ? kEmpty : table_->schema;
  }

 private:
  const Table* table_;
  size_t chunk_ = 0;
  size_t pos_ = 0;  // row within chunk_
};

class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr input, Expr::Ptr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  Status Open() override {
    if (predicate_ == nullptr) {
      return Status::InvalidArgument("null predicate");
    }
    XDBFT_RETURN_NOT_OK(InferExprType(*predicate_, input_->schema()).status());
    return input_->Open();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(out));
      if (!more) return false;
      if (predicate_->EvalBool(*out)) return true;
    }
  }

  void Close() override { input_->Close(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  OperatorPtr input_;
  Expr::Ptr predicate_;
};

class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                  std::vector<std::string> names)
      : input_(std::move(input)),
        exprs_(std::move(exprs)),
        schema_(ProjectSchema(exprs_, std::move(names), input_->schema())) {}

  Status Open() override {
    XDBFT_RETURN_NOT_OK(
        CheckProjectExprs(exprs_, schema_, input_->schema()));
    return input_->Open();
  }

  Result<bool> Next(Row* out) override {
    Row in;
    XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&in));
    if (!more) return false;
    out->clear();
    out->reserve(exprs_.size());
    for (const auto& e : exprs_) out->push_back(e->Eval(in));
    return true;
  }

  void Close() override { input_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr input_;
  std::vector<Expr::Ptr> exprs_;
  Schema schema_;
};

class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                   std::vector<int> build_keys, std::vector<int> probe_keys)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        build_keys_(std::move(build_keys)),
        probe_keys_(std::move(probe_keys)) {
    schema_ = Schema::Concat(probe_->schema(), build_->schema());
  }

  Status Open() override {
    XDBFT_RETURN_NOT_OK(CheckJoinKeys(build_->schema(), build_keys_,
                                      probe_->schema(), probe_keys_));
    // Re-Open without Close must not duplicate build rows (recovery
    // replays re-open operator trees).
    table_.clear();
    XDBFT_RETURN_NOT_OK(build_->Open());
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, build_->Next(&row));
      if (!more) break;
      table_[ExtractKey(row, build_keys_)].push_back(row);
    }
    build_->Close();
    XDBFT_RETURN_NOT_OK(probe_->Open());
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        *out = probe_row_;
        const Row& b = (*matches_)[match_pos_++];
        out->insert(out->end(), b.begin(), b.end());
        return true;
      }
      XDBFT_ASSIGN_OR_RETURN(const bool more, probe_->Next(&probe_row_));
      if (!more) return false;
      const auto it = table_.find(ExtractKey(probe_row_, probe_keys_));
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }

  void Close() override {
    probe_->Close();
    table_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr build_;
  OperatorPtr probe_;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;
  Schema schema_;
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

class HashAggregateOperator final : public Operator {
 public:
  HashAggregateOperator(OperatorPtr input, std::vector<int> group_by,
                        std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        schema_(AggregateSchema(input_->schema(), group_by_, aggs_)) {}

  Status Open() override {
    XDBFT_RETURN_NOT_OK(ValidateAggSpecs(aggs_, input_->schema()));
    XDBFT_RETURN_NOT_OK(input_->Open());
    index_.clear();
    keys_.clear();
    states_.clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&row));
      if (!more) break;
      Row key = ExtractKey(row, group_by_);
      const auto [it, inserted] = index_.try_emplace(std::move(key),
                                                     keys_.size());
      if (inserted) {
        keys_.push_back(it->first);
        states_.emplace_back(aggs_.size());
      }
      auto& states = states_[it->second];
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].arg == nullptr) {
          AccumulateStar(&states[i]);  // COUNT(*)
        } else {
          AccumulateValue(aggs_[i].func, aggs_[i].arg->Eval(row),
                          &states[i]);
        }
      }
    }
    // An empty input with no group columns still yields one global row.
    if (keys_.empty() && group_by_.empty()) {
      keys_.push_back(Row{});
      states_.emplace_back(aggs_.size());
    }
    input_->Close();
    emit_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (emit_pos_ >= keys_.size()) return false;
    const Row& key = keys_[emit_pos_];
    out->clear();
    out->insert(out->end(), key.begin(), key.end());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out->push_back(FinalizeAgg(aggs_[i].func, states_[emit_pos_][i]));
    }
    ++emit_pos_;
    return true;
  }

  void Close() override {
    index_.clear();
    keys_.clear();
    states_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr input_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  // Groups are emitted in first-occurrence order: index_ maps a key to its
  // slot in keys_/states_ (the unordered_map's own order is never used, so
  // output order is deterministic and matches the vectorized sink).
  std::unordered_map<Row, size_t, RowHash, RowEq> index_;
  std::vector<Row> keys_;
  std::vector<std::vector<AggState>> states_;
  size_t emit_pos_ = 0;
};

class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr input, std::vector<int> keys,
               std::vector<bool> ascending, int64_t limit)
      : input_(std::move(input)),
        keys_(std::move(keys)),
        ascending_(std::move(ascending)),
        limit_(limit) {}

  Status Open() override {
    if (keys_.size() != ascending_.size()) {
      return Status::InvalidArgument("sort: keys/direction size mismatch");
    }
    XDBFT_RETURN_NOT_OK(input_->Open());
    rows_.clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&row));
      if (!more) break;
      rows_.push_back(row);
    }
    input_->Close();
    const std::vector<uint32_t> perm = SortPermutation(
        rows_.size(), ascending_,
        [&](size_t k, uint32_t a, uint32_t b) {
          const auto c = static_cast<size_t>(keys_[k]);
          return rows_[a][c].Compare(rows_[b][c]);
        },
        limit_);
    std::vector<Row> sorted;
    sorted.reserve(perm.size());
    for (const uint32_t i : perm) sorted.push_back(std::move(rows_[i]));
    rows_ = std::move(sorted);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

  void Close() override { rows_.clear(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  OperatorPtr input_;
  std::vector<int> keys_;
  std::vector<bool> ascending_;
  int64_t limit_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeScan(const Table* table) {
  return std::make_unique<ScanOperator>(table);
}

OperatorPtr MakeFilter(OperatorPtr input, Expr::Ptr predicate) {
  return std::make_unique<FilterOperator>(std::move(input),
                                          std::move(predicate));
}

OperatorPtr MakeProject(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectOperator>(std::move(input),
                                           std::move(exprs),
                                           std::move(names));
}

OperatorPtr MakeHashJoin(OperatorPtr build, OperatorPtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys) {
  return std::make_unique<HashJoinOperator>(std::move(build),
                                            std::move(probe),
                                            std::move(build_keys),
                                            std::move(probe_keys));
}

OperatorPtr MakeHashAggregate(OperatorPtr input, std::vector<int> group_by,
                              std::vector<AggSpec> aggs) {
  return std::make_unique<HashAggregateOperator>(std::move(input),
                                                 std::move(group_by),
                                                 std::move(aggs));
}

OperatorPtr MakeSort(OperatorPtr input, std::vector<int> keys,
                     std::vector<bool> ascending, int64_t limit) {
  return std::make_unique<SortOperator>(std::move(input), std::move(keys),
                                        std::move(ascending), limit);
}

Result<Table> Drain(Operator* op) {
  if (op == nullptr) return Status::InvalidArgument("null operator");
  XDBFT_RETURN_NOT_OK(op->Open());
  TableBuilder out(op->schema());
  Row row;
  while (true) {
    XDBFT_ASSIGN_OR_RETURN(const bool more, op->Next(&row));
    if (!more) break;
    const Status s = out.AppendRow(row);
    if (!s.ok()) {
      op->Close();
      return s;
    }
  }
  op->Close();
  return out.Finish();
}

}  // namespace xdbft::exec
