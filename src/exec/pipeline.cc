#include "exec/pipeline.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace xdbft::exec {

namespace {

std::shared_ptr<VecNode> NewNode(VecOp op,
                                 std::vector<VecNodePtr> children) {
  auto n = std::make_shared<VecNode>();
  n->op = op;
  n->children = std::move(children);
  return n;
}

}  // namespace

VecNodePtr VScan(const Table* table) {
  auto n = NewNode(VecOp::kScan, {});
  n->table = table;
  if (table != nullptr) n->schema = table->schema;
  return n;
}

VecNodePtr VFilter(VecNodePtr input, Expr::Ptr predicate) {
  auto n = NewNode(VecOp::kFilter, {input});
  n->schema = input->schema;
  n->predicate = std::move(predicate);
  return n;
}

VecNodePtr VProject(VecNodePtr input, std::vector<Expr::Ptr> exprs,
                    std::vector<std::string> names) {
  auto n = NewNode(VecOp::kProject, {std::move(input)});
  n->schema = ProjectSchema(exprs, std::move(names), n->children[0]->schema);
  n->exprs = std::move(exprs);
  return n;
}

VecNodePtr VHashJoin(VecNodePtr build, VecNodePtr probe,
                     std::vector<int> build_keys,
                     std::vector<int> probe_keys) {
  auto n = NewNode(VecOp::kHashJoin, {build, probe});
  n->schema = Schema::Concat(probe->schema, build->schema);
  n->build_keys = std::move(build_keys);
  n->probe_keys = std::move(probe_keys);
  return n;
}

VecNodePtr VHashAggregate(VecNodePtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs) {
  auto n = NewNode(VecOp::kHashAggregate, {input});
  n->schema = AggregateSchema(n->children[0]->schema, group_by, aggs);
  n->group_by = std::move(group_by);
  n->aggs = std::move(aggs);
  return n;
}

VecNodePtr VSort(VecNodePtr input, std::vector<int> keys,
                 std::vector<bool> ascending, int64_t limit) {
  auto n = NewNode(VecOp::kSort, {input});
  n->schema = n->children[0]->schema;
  n->sort_keys = std::move(keys);
  n->ascending = std::move(ascending);
  n->limit = limit;
  return n;
}

namespace {

const char* VecOpName(VecOp op) {
  switch (op) {
    case VecOp::kScan:
      return "Scan";
    case VecOp::kFilter:
      return "Filter";
    case VecOp::kProject:
      return "Project";
    case VecOp::kHashJoin:
      return "HashJoin";
    case VecOp::kHashAggregate:
      return "HashAggregate";
    case VecOp::kSort:
      return "Sort";
  }
  return "?";
}

void BuildSkeletonNode(const VecNode& n, obs::OperatorProfile* out) {
  out->name = VecOpName(n.op);
  out->children.resize(n.children.size());
  for (size_t i = 0; i < n.children.size(); ++i) {
    BuildSkeletonNode(*n.children[i], &out->children[i]);
  }
}

// Memory-footprint estimates, derived after execution from the recorded
// row counts so both engines report identical numbers: materializing
// breakers are charged their output, joins their buffered build
// side — rows x columns x sizeof(Value), the same convention as the FT
// executor's table-size accounting.
void FinalizeMemoryEstimates(const VecNode& n, obs::OperatorProfile* p) {
  switch (n.op) {
    case VecOp::kHashAggregate:
    case VecOp::kSort:
      p->est_memory_bytes =
          p->rows_out * n.schema.num_columns() * sizeof(Value);
      break;
    case VecOp::kHashJoin:
      if (!p->children.empty()) {
        p->est_memory_bytes = p->children[0].rows_out *
                              n.children[0]->schema.num_columns() *
                              sizeof(Value);
      }
      break;
    default:
      break;
  }
  for (size_t i = 0; i < n.children.size(); ++i) {
    FinalizeMemoryEstimates(*n.children[i], &p->children[i]);
  }
}

// Resets `root` to the EXPLAIN ANALYZE skeleton of `plan`: same tree
// shape, operator names filled in, all counters zero. Both engines fill
// this identical shape.
void BuildProfileSkeleton(const VecNodePtr& plan,
                          obs::OperatorProfile* root) {
  if (plan == nullptr || root == nullptr) return;
  *root = obs::OperatorProfile{};
  BuildSkeletonNode(*plan, root);
}

// Volcano-tree decorator: charges inclusive wall time of Open/Next (the
// operator plus everything below it) and counts produced rows into one
// skeleton node. The root decorator additionally fills the memory
// estimates at Close, when the counts are complete.
class ProfilingOperator final : public Operator {
 public:
  ProfilingOperator(OperatorPtr inner, obs::OperatorProfile* node)
      : inner_(std::move(inner)), node_(node) {}

  void set_finalize(VecNodePtr plan, obs::OperatorProfile* root) {
    finalize_plan_ = std::move(plan);
    finalize_root_ = root;
  }

  Status Open() override {
    const auto t0 = std::chrono::steady_clock::now();
    Status s = inner_->Open();
    node_->seconds += Elapsed(t0);
    return s;
  }

  Result<bool> Next(Row* out) override {
    const auto t0 = std::chrono::steady_clock::now();
    Result<bool> r = inner_->Next(out);
    node_->seconds += Elapsed(t0);
    if (r.ok() && *r) ++node_->rows_out;
    return r;
  }

  void Close() override {
    inner_->Close();
    if (finalize_root_ != nullptr) {
      FinalizeMemoryEstimates(*finalize_plan_, finalize_root_);
    }
  }

  const Schema& schema() const override { return inner_->schema(); }

 private:
  static double Elapsed(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  OperatorPtr inner_;
  obs::OperatorProfile* node_;
  VecNodePtr finalize_plan_;
  obs::OperatorProfile* finalize_root_ = nullptr;
};

// Lowers `plan` to the row engine; with `node` set, every operator is
// wrapped in a ProfilingOperator bound to its skeleton node.
OperatorPtr Lower(const VecNodePtr& plan, obs::OperatorProfile* node) {
  if (plan == nullptr) return nullptr;
  const VecNode& n = *plan;
  const auto child = [&](size_t i) {
    return Lower(n.children[i],
                 node == nullptr ? nullptr : &node->children[i]);
  };
  OperatorPtr op;
  switch (n.op) {
    case VecOp::kScan:
      op = MakeScan(n.table);
      break;
    case VecOp::kFilter:
      op = MakeFilter(child(0), n.predicate);
      break;
    case VecOp::kProject: {
      std::vector<std::string> names;
      names.reserve(n.schema.num_columns());
      for (const auto& c : n.schema.columns()) names.push_back(c.name);
      op = MakeProject(child(0), n.exprs, std::move(names));
      break;
    }
    case VecOp::kHashJoin:
      op = MakeHashJoin(child(0), child(1), n.build_keys, n.probe_keys);
      break;
    case VecOp::kHashAggregate:
      op = MakeHashAggregate(child(0), n.group_by, n.aggs);
      break;
    case VecOp::kSort:
      op = MakeSort(child(0), n.sort_keys, n.ascending, n.limit);
      break;
  }
  if (node != nullptr && op != nullptr) {
    op = std::make_unique<ProfilingOperator>(std::move(op), node);
  }
  return op;
}

}  // namespace

OperatorPtr ToOperator(const VecNodePtr& plan,
                       obs::OperatorProfile* profile) {
  BuildProfileSkeleton(plan, profile);
  OperatorPtr op = Lower(plan, profile);
  if (profile != nullptr && op != nullptr) {
    static_cast<ProfilingOperator*>(op.get())->set_finalize(plan, profile);
  }
  return op;
}

namespace {

void IdentitySelection(size_t lo, size_t hi, std::vector<int32_t>* sel) {
  sel->resize(hi - lo);
  std::iota(sel->begin(), sel->end(), static_cast<int32_t>(lo));
}

// Cell i of `v` as a double (numeric cells only).
double NumericAt(const Vector& v, size_t i) {
  return v.type == ValueType::kInt64 ? static_cast<double>(v.i64[i])
                                     : v.f64[i];
}

// Value::Compare of cells i and j of one column.
int CompareCells(const Vector& v, size_t i, size_t j) {
  const bool ni = v.IsNull(i), nj = v.IsNull(j);
  if (ni || nj) return static_cast<int>(nj) - static_cast<int>(ni);
  if (v.type == ValueType::kString) {
    return CompareStrings(v.StringAt(i), v.StringAt(j));
  }
  return CompareDoubles(NumericAt(v, i), NumericAt(v, j));
}

// Value::Compare(cell a, cell b) == 0: the key equality of RowEq.
bool CellsEqual(const Vector& a, size_t i, const Vector& b, size_t j) {
  const bool na = a.IsNull(i), nb = b.IsNull(j);
  if (na || nb) return na && nb;
  if (a.type == ValueType::kString) {
    if (a.dict == b.dict) return a.codes[i] == b.codes[j];
    return a.StringAt(i) == b.StringAt(j);
  }
  return CompareDoubles(NumericAt(a, i), NumericAt(b, j)) == 0;
}

// Open-addressing map from a 64-bit key to a dense uint32 id (assigned
// by the caller). Linear probing; grows at half load.
class U64Map {
 public:
  U64Map() { Resize(64); }

  // Returns the id of `key`, inserting `fresh` when it is absent.
  uint32_t FindOrInsert(uint64_t key, uint32_t fresh, bool* inserted) {
    size_t pos = Mix(key) & mask_;
    while (used_[pos]) {
      if (keys_[pos] == key) {
        *inserted = false;
        return ids_[pos];
      }
      pos = (pos + 1) & mask_;
    }
    *inserted = true;
    used_[pos] = 1;
    keys_[pos] = key;
    ids_[pos] = fresh;
    if (++size_ * 2 > keys_.size()) Resize(keys_.size() * 2);
    return fresh;
  }

  // Id of `key`, or -1.
  int64_t Find(uint64_t key) const {
    size_t pos = Mix(key) & mask_;
    while (used_[pos]) {
      if (keys_[pos] == key) return ids_[pos];
      pos = (pos + 1) & mask_;
    }
    return -1;
  }

 private:
  static size_t Mix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<size_t>(k);
  }

  void Resize(size_t cap) {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<uint32_t> ids = std::move(ids_);
    std::vector<uint8_t> used = std::move(used_);
    keys_.assign(cap, 0);
    ids_.assign(cap, 0);
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (size_t i = 0; i < used.size(); ++i) {
      if (!used[i]) continue;
      size_t pos = Mix(keys[i]) & mask_;
      while (used_[pos]) pos = (pos + 1) & mask_;
      used_[pos] = 1;
      keys_[pos] = keys[i];
      ids_[pos] = ids[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> ids_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Keys of the hash join's build side: groups of build rows with equal key
// tuples (RowEq semantics), rows of a group in build order. A probe key
// matches the group whose representative it equals.
class JoinIndex {
 public:
  JoinIndex(ChunkPtr build, std::vector<int> keys)
      : build_(std::move(build)), keys_(std::move(keys)) {
    const size_t n = build_->num_rows;
    std::vector<uint32_t> group_of(n);
    std::vector<uint32_t> group_size;
    for (size_t r = 0; r < n; ++r) {
      const uint32_t g = FindOrAdd(r, &group_size);
      group_of[r] = g;
      ++group_size[g];
    }
    offsets_.assign(group_size.size() + 1, 0);
    for (size_t g = 0; g < group_size.size(); ++g) {
      offsets_[g + 1] = offsets_[g] + group_size[g];
    }
    rows_.resize(n);
    std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      rows_[fill[group_of[r]]++] = static_cast<uint32_t>(r);
    }
  }

  const Chunk& build() const { return *build_; }

  // Build rows matching probe row i of `probe` (key columns `probe_keys`),
  // as [*begin, *end) of rows().
  bool Lookup(const std::vector<const Vector*>& probe, size_t i,
              const std::vector<int>& probe_keys, const uint32_t** begin,
              const uint32_t** end) const {
    size_t h = kRowHashSeed;
    for (const int k : probe_keys) {
      h = RowHashStep(h, CellHash(*probe[static_cast<size_t>(k)], i));
    }
    const int64_t first = heads_.Find(h);
    for (int64_t g = first; g >= 0; g = next_[static_cast<size_t>(g)]) {
      const size_t rep = rows_[offsets_[static_cast<size_t>(g)]];
      bool eq = true;
      for (size_t c = 0; c < keys_.size() && eq; ++c) {
        eq = CellsEqual(*probe[static_cast<size_t>(probe_keys[c])], i,
                        build_->columns[static_cast<size_t>(keys_[c])], rep);
      }
      if (eq) {
        *begin = rows_.data() + offsets_[static_cast<size_t>(g)];
        *end = rows_.data() + offsets_[static_cast<size_t>(g) + 1];
        return true;
      }
    }
    return false;
  }

 private:
  // Group of build row r, created (empty) when no earlier row's key equals.
  uint32_t FindOrAdd(size_t r, std::vector<uint32_t>* group_size) {
    size_t h = kRowHashSeed;
    for (const int k : keys_) {
      h = RowHashStep(h, CellHash(build_->columns[static_cast<size_t>(k)], r));
    }
    const auto fresh = static_cast<uint32_t>(reps_.size());
    bool inserted = false;
    const uint32_t first = heads_.FindOrInsert(h, fresh, &inserted);
    if (!inserted) {
      int64_t last = -1;
      for (int64_t g = first; g >= 0; g = next_[static_cast<size_t>(g)]) {
        bool eq = true;
        for (size_t c = 0; c < keys_.size() && eq; ++c) {
          const Vector& v = build_->columns[static_cast<size_t>(keys_[c])];
          eq = CellsEqual(v, r, v, reps_[static_cast<size_t>(g)]);
        }
        if (eq) return static_cast<uint32_t>(g);
        last = g;
      }
      next_[static_cast<size_t>(last)] = fresh;
    }
    reps_.push_back(static_cast<uint32_t>(r));
    next_.push_back(-1);
    group_size->push_back(0);
    return fresh;
  }

  ChunkPtr build_;
  std::vector<int> keys_;
  U64Map heads_;                // key hash -> first group with that hash
  std::vector<int64_t> next_;   // next group with the same hash, or -1
  std::vector<uint32_t> reps_;  // first build row of each group
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;  // build rows grouped, build order within
};

// A morsel in flight: a batch (a chunk view or vectors a step computed)
// and the selection vector of its live positions, in row order. Filters
// only narrow `sel`; projections and join probes produce a new batch.
struct Morsel {
  Batch batch;
  std::vector<int32_t> sel;

  size_t live_rows() const { return sel.size(); }
};

// One streaming transform, applied to a morsel in place. Steps are pure
// w.r.t. shared state (they only read build tables), so morsels can run
// them concurrently.
using StreamStep = std::function<void(Morsel*)>;

/// \brief Serial consumer of one pipeline's morsel outputs. Consume is
/// called in morsel-index order (never concurrently), which pins every
/// order-sensitive effect — row append order, aggregate accumulation
/// order, group first-occurrence order — to the source row order.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Consume(Morsel&& morsel) = 0;
  virtual Result<Table> Finish() = 0;
};

class CollectSink final : public Sink {
 public:
  explicit CollectSink(const Schema& schema) : out_(schema) {}

  Status Consume(Morsel&& morsel) override {
    return out_.AppendGather(morsel.batch.columns, morsel.sel.data(),
                             morsel.sel.size());
  }
  Result<Table> Finish() override { return out_.Finish(); }

 private:
  TableBuilder out_;
};

// Maps the cells of one group-by column to dense ids, equal exactly when
// the cells group together under RowEq: NULL is id 0, a string's id comes
// from its dictionary code (each source dictionary translated once), an
// int64 in [-2^53, 2^53] is exact as a double so its value is the key.
// Doubles and larger int64s (which Value::Compare can equate while they
// differ) are not encodable; the sink then falls back to full keys.
class KeyEncoder {
 public:
  // ids[i] for every live position; false when a cell is not encodable.
  bool Encode(const Vector& v, const std::vector<int32_t>& sel,
              std::vector<uint32_t>* ids) {
    const size_t n = sel.size();
    ids->resize(n);
    uint32_t* out = ids->data();
    switch (v.type) {
      case ValueType::kNull:
        std::fill(out, out + n, 0u);
        return true;
      case ValueType::kDouble:
        return false;
      case ValueType::kInt64:
        for (size_t i = 0; i < n; ++i) {
          const auto r = static_cast<size_t>(sel[i]);
          if (v.IsNull(r)) {
            out[i] = 0;
            continue;
          }
          const int64_t x = v.i64[r];
          if (x > kExactInt || x < -kExactInt) return false;
          bool inserted = false;
          out[i] = ints_.FindOrInsert(static_cast<uint64_t>(x), next_id_,
                                      &inserted);
          if (inserted) ++next_id_;
        }
        return true;
      case ValueType::kString: {
        std::vector<int64_t>& tr = translations_.For(v.dict);
        for (size_t i = 0; i < n; ++i) {
          const auto r = static_cast<size_t>(sel[i]);
          if (v.IsNull(r)) {
            out[i] = 0;
            continue;
          }
          int64_t& id = tr[v.codes[r]];
          if (id < 0) {
            const auto [it, inserted] =
                strings_.try_emplace(v.dict->values[v.codes[r]], next_id_);
            if (inserted) ++next_id_;
            id = it->second;
          }
          out[i] = static_cast<uint32_t>(id);
        }
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr int64_t kExactInt = int64_t{1} << 53;

  uint32_t next_id_ = 1;
  U64Map ints_;
  std::unordered_map<std::string, uint32_t> strings_;
  DictTranslations translations_;  // source code -> id
};

class AggSink final : public Sink {
 public:
  explicit AggSink(const VecNode& node)
      : node_(node),
        key_schema_(KeySchema(node)),
        keys_(key_schema_),
        encoders_(node.group_by.size()),
        accs_(node.aggs.size()),
        encoded_(!node.group_by.empty() && node.group_by.size() <= 2) {
    seen_keys_.schema = key_schema_;
  }

  Status Consume(Morsel&& morsel) override {
    const size_t n = morsel.live_rows();
    if (n == 0) return Status::OK();
    const Batch& batch = morsel.batch;
    XDBFT_RETURN_NOT_OK(AssignSlots(batch, morsel.sel));
    for (size_t a = 0; a < node_.aggs.size(); ++a) {
      Accumulate(node_.aggs[a], batch, morsel.sel, &accs_[a]);
    }
    return Status::OK();
  }

  Result<Table> Finish() override {
    if (num_groups_ == 0 && node_.group_by.empty()) {
      NewGroup();  // empty input still yields one global row
    }
    // One chunk: the group keys (first-occurrence order), then one
    // finalized column per aggregate.
    seen_keys_.Append(keys_.Finish());
    auto chunk = std::make_shared<Chunk>();
    chunk->num_rows = num_groups_;
    if (!node_.group_by.empty()) {
      const ChunkPtr key_chunk = seen_keys_.Flatten();
      chunk->columns = key_chunk->columns;
    }
    const size_t nkeys = node_.group_by.size();
    for (size_t a = 0; a < node_.aggs.size(); ++a) {
      ColumnBuilder col(node_.schema.column(static_cast<int>(nkeys + a)).type);
      const Acc& acc = accs_[a];
      for (size_t s = 0; s < num_groups_; ++s) {
        AggState st;
        st.count = acc.count[s];
        st.sum = acc.sum.empty() ? 0.0 : acc.sum[s];
        if (!acc.extreme.empty()) st.min = st.max = acc.extreme[s];
        XDBFT_RETURN_NOT_OK(col.Append(FinalizeAgg(node_.aggs[a].func, st)));
      }
      chunk->columns.push_back(col.Finish());
    }
    std::vector<Column> cols = node_.schema.columns();
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].type == ValueType::kNull) {
        cols[c].type = chunk->columns[c].type;
      }
    }
    Table out;
    out.schema = Schema(std::move(cols));
    out.AppendChunk(std::move(chunk));
    return out;
  }

 private:
  // Struct-of-arrays state of one aggregate, indexed by group slot.
  struct Acc {
    std::vector<int64_t> count;
    std::vector<double> sum;      // SUM / AVG
    std::vector<Value> extreme;   // MIN / MAX
  };

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  static Schema KeySchema(const VecNode& node) {
    std::vector<Column> cols;
    for (const int g : node.group_by) {
      cols.push_back(node.children[0]->schema.column(g));
    }
    return Schema(std::move(cols));
  }

  uint32_t NewGroup() {
    const auto slot = static_cast<uint32_t>(num_groups_++);
    for (size_t a = 0; a < node_.aggs.size(); ++a) {
      Acc& acc = accs_[a];
      acc.count.push_back(0);
      switch (node_.aggs[a].func) {
        case AggFunc::kSum:
        case AggFunc::kAvg:
          acc.sum.push_back(0.0);
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          acc.extreme.emplace_back();
          break;
        case AggFunc::kCount:
          break;
      }
    }
    return slot;
  }

  // A new group whose key is batch row r.
  Result<uint32_t> NewGroup(const Batch& batch, int32_t r) {
    key_cols_.clear();
    for (const int g : node_.group_by) {
      key_cols_.push_back(batch.columns[static_cast<size_t>(g)]);
    }
    XDBFT_RETURN_NOT_OK(keys_.AppendGather(key_cols_, &r, 1));
    return NewGroup();
  }

  Row KeyAt(const Batch& batch, size_t r) const {
    Row key;
    key.reserve(node_.group_by.size());
    for (const int g : node_.group_by) {
      key.push_back(batch.columns[static_cast<size_t>(g)]->GetValue(r));
    }
    return key;
  }

  // slots_[i]: group slot of live position i, new groups created in
  // position order (first-occurrence order).
  Status AssignSlots(const Batch& batch, const std::vector<int32_t>& sel) {
    const size_t n = sel.size();
    slots_.resize(n);
    if (node_.group_by.empty()) {
      if (num_groups_ == 0) NewGroup();
      std::fill(slots_.begin(), slots_.end(), 0u);
      return Status::OK();
    }
    if (encoded_) {
      ids_.resize(node_.group_by.size());
      for (size_t c = 0; c < node_.group_by.size() && encoded_; ++c) {
        encoded_ = encoders_[c].Encode(
            *batch.columns[static_cast<size_t>(node_.group_by[c])], sel,
            &ids_[c]);
      }
      if (encoded_) return AssignEncoded(batch, sel);
      // A key the encoders cannot represent: index every group seen so
      // far by its full key (same slots, same order) and continue there.
      seen_keys_.Append(keys_.Finish());
      const std::vector<Row> seen = seen_keys_.ToRows();
      for (size_t s = 0; s < seen.size(); ++s) {
        full_index_.emplace(seen[s], static_cast<uint32_t>(s));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Row key = KeyAt(batch, static_cast<size_t>(sel[i]));
      const auto it = full_index_.find(key);
      if (it != full_index_.end()) {
        slots_[i] = it->second;
        continue;
      }
      XDBFT_ASSIGN_OR_RETURN(slots_[i], NewGroup(batch, sel[i]));
      full_index_.emplace(std::move(key), slots_[i]);
    }
    return Status::OK();
  }

  Status AssignEncoded(const Batch& batch, const std::vector<int32_t>& sel) {
    const size_t n = sel.size();
    if (ids_.size() == 1) {
      // One key column: its ids are dense, so a flat array maps them.
      const uint32_t* ids = ids_[0].data();
      for (size_t i = 0; i < n; ++i) {
        if (ids[i] >= slot_of_id_.size()) {
          slot_of_id_.resize(std::max<size_t>(ids[i] + 1,
                                              slot_of_id_.size() * 2),
                             kNoSlot);
        }
        uint32_t& slot = slot_of_id_[ids[i]];
        if (slot == kNoSlot) {
          XDBFT_ASSIGN_OR_RETURN(slot, NewGroup(batch, sel[i]));
        }
        slots_[i] = slot;
      }
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = (uint64_t{ids_[0][i]} << 32) | ids_[1][i];
      bool inserted = false;
      slots_[i] = by_id_.FindOrInsert(key, static_cast<uint32_t>(num_groups_),
                                      &inserted);
      if (inserted) XDBFT_RETURN_NOT_OK(NewGroup(batch, sel[i]).status());
    }
    return Status::OK();
  }

  // Folds one aggregate's argument over the live positions, in position
  // (= source row) order, so SUM/AVG add exactly the row engine's doubles
  // in the row engine's order.
  void Accumulate(const AggSpec& spec, const Batch& batch,
                  const std::vector<int32_t>& sel, Acc* acc) {
    const size_t n = sel.size();
    const uint32_t* slot = slots_.data();
    if (spec.arg == nullptr) {  // COUNT(*)
      for (size_t i = 0; i < n; ++i) ++acc->count[slot[i]];
      return;
    }
    // Bare columns are read through the selection; anything else is
    // evaluated into a dense vector first.
    const Vector* v = nullptr;
    const int32_t* idx = nullptr;
    if (spec.arg->op() == ExprOp::kColumn) {
      v = batch.columns[static_cast<size_t>(spec.arg->column_index())];
      idx = sel.data();
    } else {
      spec.arg->EvalVector(batch, sel, &arg_);
      v = &arg_;
    }
    const auto at = [idx](size_t i) {
      return idx == nullptr ? i : static_cast<size_t>(idx[i]);
    };
    if (v->type == ValueType::kNull) return;  // every argument NULL
    const bool nulls = v->has_nulls();
    switch (spec.func) {
      case AggFunc::kCount:
        for (size_t i = 0; i < n; ++i) {
          if (!nulls || !v->IsNull(at(i))) ++acc->count[slot[i]];
        }
        return;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v->type == ValueType::kDouble) {
          SumLoop(v->f64.data(), idx, nulls ? v : nullptr, n, acc);
        } else {
          SumLoop(v->i64.data(), idx, nulls ? v : nullptr, n, acc);
        }
        return;
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool is_min = spec.func == AggFunc::kMin;
        for (size_t i = 0; i < n; ++i) {
          const size_t r = at(i);
          if (v->IsNull(r)) continue;
          ++acc->count[slot[i]];
          Value& cur = acc->extreme[slot[i]];
          if (cur.is_null() || Better(*v, r, cur, is_min)) {
            cur = v->GetValue(r);
          }
        }
        return;
      }
    }
  }

  // The typed core of AccumulateValue for SUM/AVG.
  template <typename T>
  void SumLoop(const T* p, const int32_t* idx, const Vector* nulls, size_t n,
               Acc* acc) {
    const uint32_t* slot = slots_.data();
    int64_t* count = acc->count.data();
    double* sum = acc->sum.data();
    for (size_t i = 0; i < n; ++i) {
      const size_t r = idx == nullptr ? i : static_cast<size_t>(idx[i]);
      if (nulls != nullptr && nulls->IsNull(r)) continue;
      ++count[slot[i]];
      sum[slot[i]] += static_cast<double>(p[r]);
    }
  }

  // AccumulateValue's MIN/MAX test: cell < cur (MIN) or cur < cell (MAX)
  // under Value::Compare.
  static bool Better(const Vector& v, size_t r, const Value& cur,
                     bool is_min) {
    int c = 0;
    if (v.type == ValueType::kString) {
      c = CompareStrings(v.StringAt(r), cur.AsString());
    } else {
      XDBFT_CHECK(cur.type() != ValueType::kString)
          << "comparing string with numeric value";
      c = CompareDoubles(NumericAt(v, r), cur.AsDouble());
    }
    return is_min ? c < 0 : c > 0;
  }

  const VecNode& node_;
  Schema key_schema_;
  // Group keys in first-occurrence order: finished parts, then the part
  // being built.
  Table seen_keys_;
  TableBuilder keys_;
  size_t num_groups_ = 0;
  std::vector<KeyEncoder> encoders_;
  std::vector<Acc> accs_;
  bool encoded_;
  std::vector<std::vector<uint32_t>> ids_;  // per group column, scratch
  std::vector<uint32_t> slot_of_id_;        // one encoded column: id -> slot
  U64Map by_id_;                            // two encoded columns -> slot
  std::unordered_map<Row, uint32_t, RowHash, RowEq> full_index_;
  std::vector<const Vector*> key_cols_;  // scratch
  std::vector<uint32_t> slots_;         // scratch, per live position
  Vector arg_;                          // scratch, evaluated argument
};

class SortSink final : public Sink {
 public:
  explicit SortSink(const VecNode& node) : node_(node), rows_(node.schema) {}

  Status Consume(Morsel&& morsel) override {
    return rows_.AppendGather(morsel.batch.columns, morsel.sel.data(),
                              morsel.sel.size());
  }

  Result<Table> Finish() override {
    Table all = rows_.Finish();
    if (all.num_rows() == 0) return all;
    const ChunkPtr flat = all.Flatten();
    std::vector<const Vector*> keys;
    for (const int k : node_.sort_keys) {
      keys.push_back(&flat->columns[static_cast<size_t>(k)]);
    }
    const std::vector<uint32_t> perm = SortPermutation(
        flat->num_rows, node_.ascending,
        [&keys](size_t k, uint32_t a, uint32_t b) {
          return CompareCells(*keys[k], a, b);
        },
        node_.limit);
    std::vector<const Vector*> cols;
    for (const Vector& v : flat->columns) cols.push_back(&v);
    TableBuilder out(all.schema);
    XDBFT_RETURN_NOT_OK(out.AppendGather(
        cols, reinterpret_cast<const int32_t*>(perm.data()), perm.size()));
    return out.Finish();
  }

 private:
  const VecNode& node_;
  TableBuilder rows_;
};

struct ExecContext {
  const VecExecOptions* opts = nullptr;
  // Materialized pipeline-breaker outputs and build indexes; deques so
  // addresses stay stable while later pipelines reference them.
  std::deque<Table> owned_tables;
  std::deque<JoinIndex> join_indexes;
  int next_pipeline_id = 0;
  // Plan node -> skeleton node, filled only when profiling.
  std::unordered_map<const VecNode*, obs::OperatorProfile*> profile_map;

  obs::OperatorProfile* ProfileNode(const VecNode* n) const {
    const auto it = profile_map.find(n);
    return it == profile_map.end() ? nullptr : it->second;
  }
};

// Per-task profiling accumulator for one chain slot: a worker touches only
// its own task's slots while morsels run, so the hot path takes no locks
// and shares no cache lines; RunPipeline folds the rows into the skeleton
// after the parallel region.
struct ProfAcc {
  uint64_t rows = 0;
  uint64_t batches = 0;
  double seconds = 0.0;
};

void BuildProfileMap(
    const VecNode& n, obs::OperatorProfile* p,
    std::unordered_map<const VecNode*, obs::OperatorProfile*>* map) {
  (*map)[&n] = p;
  for (size_t i = 0; i < n.children.size(); ++i) {
    BuildProfileMap(*n.children[i], &p->children[i], map);
  }
}

// Probe step of a hash join: for each live probe row in order, one output
// row per matching build row (build order) — probe columns first, then
// build columns, the row operator's layout and order.
void ProbeJoin(const JoinIndex& index, const std::vector<int>& probe_keys,
               Morsel* m) {
  const Chunk& build = index.build();
  std::vector<int32_t> probe_rows;
  std::vector<int32_t> build_rows;
  for (const int32_t r : m->sel) {
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
    if (!index.Lookup(m->batch.columns, static_cast<size_t>(r), probe_keys,
                      &begin, &end)) {
      continue;
    }
    for (const uint32_t* b = begin; b != end; ++b) {
      probe_rows.push_back(r);
      build_rows.push_back(static_cast<int32_t>(*b));
    }
  }
  std::vector<std::unique_ptr<Vector>> out;
  const auto gather = [&out](const Vector& src,
                             const std::vector<int32_t>& rows) {
    ColumnBuilder b(src.type);
    XDBFT_CHECK_OK(b.AppendGather(src, rows.data(), rows.size()));
    out.push_back(std::make_unique<Vector>(b.Finish()));
  };
  for (const Vector* v : m->batch.columns) gather(*v, probe_rows);
  for (const Vector& v : build.columns) gather(v, build_rows);
  const size_t n = probe_rows.size();
  m->batch = Batch::Owning(std::move(out));
  IdentitySelection(0, n, &m->sel);
}

Result<Table> ExecNode(const VecNode& node, ExecContext* ctx);

// One morsel of a pipeline's source: rows [lo, hi) of one chunk.
struct MorselRange {
  ChunkPtr chunk;
  size_t lo = 0;
  size_t hi = 0;
};

// Runs the streaming pipeline rooted at `node` (a chain of filters,
// projects and join probes over one source) and feeds `sink` in morsel
// order. Breaker children (hash-build sides, any blocking node used as the
// source) are materialized first via ExecNode.
Status RunPipeline(const VecNode& node, Sink* sink, ExecContext* ctx) {
  std::vector<StreamStep> steps;  // collected top-down, applied bottom-up
  // Skeleton nodes of the chain, parallel to `steps` (null when not
  // profiling). The fused scan-filter keeps separate scan and filter
  // nodes so recorded row counts still match the row engine's operator
  // boundaries.
  std::vector<obs::OperatorProfile*> step_profs;
  obs::OperatorProfile* source_prof = nullptr;
  obs::OperatorProfile* fused_filter_prof = nullptr;
  const VecNode* cur = &node;
  const Table* source = nullptr;
  Expr::Ptr scan_filter;  // filter fused into the table scan, if any
  while (source == nullptr) {
    switch (cur->op) {
      case VecOp::kScan:
        if (cur->table == nullptr) {
          return Status::InvalidArgument("null table");
        }
        source = cur->table;
        source_prof = ctx->ProfileNode(cur);
        break;
      case VecOp::kFilter: {
        if (cur->predicate == nullptr) {
          return Status::InvalidArgument("null predicate");
        }
        XDBFT_RETURN_NOT_OK(
            InferExprType(*cur->predicate, cur->children[0]->schema)
                .status());
        Expr::Ptr pred = cur->predicate;
        if (cur->children[0]->op == VecOp::kScan &&
            cur->children[0]->table != nullptr) {
          // Filter directly over a table scan: evaluated on the chunk
          // view itself, so dropped rows are never touched again.
          scan_filter = pred;
          fused_filter_prof = ctx->ProfileNode(cur);
        } else {
          steps.push_back([pred](Morsel* m) {
            pred->EvalSelection(m->batch, &m->sel);
          });
          step_profs.push_back(ctx->ProfileNode(cur));
        }
        cur = cur->children[0].get();
        break;
      }
      case VecOp::kProject: {
        XDBFT_RETURN_NOT_OK(CheckProjectExprs(
            cur->exprs, cur->schema, cur->children[0]->schema));
        const std::vector<Expr::Ptr> exprs = cur->exprs;
        steps.push_back([exprs](Morsel* m) {
          // EvalVector reads through the selection, so projection
          // compacts as a side effect.
          std::vector<std::unique_ptr<Vector>> out;
          out.reserve(exprs.size());
          for (const auto& e : exprs) {
            out.push_back(std::make_unique<Vector>());
            e->EvalVector(m->batch, m->sel, out.back().get());
          }
          const size_t n = m->sel.size();
          m->batch = Batch::Owning(std::move(out));
          IdentitySelection(0, n, &m->sel);
        });
        step_profs.push_back(ctx->ProfileNode(cur));
        cur = cur->children[0].get();
        break;
      }
      case VecOp::kHashJoin: {
        XDBFT_RETURN_NOT_OK(CheckJoinKeys(
            cur->children[0]->schema, cur->build_keys,
            cur->children[1]->schema, cur->probe_keys));
        XDBFT_ASSIGN_OR_RETURN(Table built,
                               ExecNode(*cur->children[0], ctx));
        ctx->join_indexes.emplace_back(built.Flatten(), cur->build_keys);
        const JoinIndex* index = &ctx->join_indexes.back();
        const std::vector<int> pkeys = cur->probe_keys;
        steps.push_back([index, pkeys](Morsel* m) {
          ProbeJoin(*index, pkeys, m);
        });
        step_profs.push_back(ctx->ProfileNode(cur));
        cur = cur->children[1].get();
        break;
      }
      default: {
        // Pipeline breaker used as a source: materialize it.
        XDBFT_ASSIGN_OR_RETURN(Table t, ExecNode(*cur, ctx));
        ctx->owned_tables.push_back(std::move(t));
        source = &ctx->owned_tables.back();
        break;
      }
    }
  }
  std::reverse(steps.begin(), steps.end());
  std::reverse(step_profs.begin(), step_profs.end());

  const VecExecOptions& opts = *ctx->opts;
  const size_t morsel = std::max<size_t>(1, opts.morsel_rows);
  // Morsels never straddle chunks: each is a (chunk, row range) view.
  std::vector<MorselRange> ranges;
  for (const ChunkPtr& chunk : source->chunks()) {
    for (size_t lo = 0; lo < chunk->num_rows; lo += morsel) {
      ranges.push_back({chunk, lo, std::min(chunk->num_rows, lo + morsel)});
    }
  }
  const size_t nmorsels = ranges.size();

  // Read only by the profile fold below (when profiling is on).
  const int pipeline_id = ctx->next_pipeline_id++;

  // Profiling slot layout per task: [0] source batch formation, [1] the
  // fused filter when present, then one slot per streaming step. The
  // morsel loop writes only its own task's accumulator row; the fold
  // below is the single synchronization point.
  const bool profiling = !ctx->profile_map.empty();
  const size_t nslots = 1 + (scan_filter != nullptr ? 1 : 0) + steps.size();
  std::vector<std::vector<ProfAcc>> accs;

  const auto run_morsel = [&](size_t m, Morsel* out, ProfAcc* acc) {
    const MorselRange& range = ranges[m];
    std::chrono::steady_clock::time_point t0;
    if (acc != nullptr) t0 = std::chrono::steady_clock::now();
    // The scan is a view: the batch points at the chunk's columns and the
    // selection lists the morsel's rows; the fused filter narrows it.
    out->batch = Batch::Of(range.chunk);
    IdentitySelection(range.lo, range.hi, &out->sel);
    if (scan_filter != nullptr) {
      scan_filter->EvalSelection(out->batch, &out->sel);
    }
    if (acc != nullptr) {
      // The scan reports the rows it read (hi - lo); the fused filter
      // reports the survivors — the same counts the row operators yield.
      acc[0].seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      acc[0].batches += 1;
      acc[0].rows += range.hi - range.lo;
      if (scan_filter != nullptr) {
        acc[1].batches += 1;
        acc[1].rows += out->sel.size();
      }
      size_t slot = scan_filter != nullptr ? 2 : 1;
      for (const auto& step : steps) {
        const auto ts = std::chrono::steady_clock::now();
        step(out);
        ProfAcc& a = acc[slot++];
        a.seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ts)
                         .count();
        a.batches += 1;
        a.rows += out->live_rows();
      }
      return;
    }
    for (const auto& step : steps) step(out);
  };

  TaskPool* pool = opts.pool;
  if (pool != nullptr && pool->num_threads() > 0 && nmorsels > 1) {
    // Morsels run in parallel; the sink still consumes their outputs in
    // morsel-index order below, which keeps results bit-identical to the
    // serial (and row-engine) execution. Morsels are grouped into a few
    // contiguous range tasks per worker so the per-task pool overhead is
    // amortized over many morsels.
    std::vector<Morsel> outs(nmorsels);
    const size_t lanes = static_cast<size_t>(pool->num_threads()) + 1;
    const size_t ntasks = std::min(nmorsels, lanes * 4);
    if (profiling) accs.assign(ntasks, std::vector<ProfAcc>(nslots));
    pool->ParallelForEach(ntasks, [&](size_t task) {
      const size_t lo = task * nmorsels / ntasks;
      const size_t hi = (task + 1) * nmorsels / ntasks;
      ProfAcc* acc = profiling ? accs[task].data() : nullptr;
      for (size_t m = lo; m < hi; ++m) run_morsel(m, &outs[m], acc);
    });
    for (auto& m : outs) XDBFT_RETURN_NOT_OK(sink->Consume(std::move(m)));
  } else {
    // The sinks only read the morsel, so one morsel's selection buffer is
    // reused for the whole loop.
    if (profiling) accs.assign(1, std::vector<ProfAcc>(nslots));
    ProfAcc* acc = profiling ? accs[0].data() : nullptr;
    Morsel m;
    for (size_t i = 0; i < nmorsels; ++i) {
      run_morsel(i, &m, acc);
      XDBFT_RETURN_NOT_OK(sink->Consume(std::move(m)));
    }
  }

  if (profiling) {
    // Fold the per-task accumulators into the skeleton. Chain times are
    // made inclusive (each operator is charged its own busy seconds plus
    // everything upstream in the pipeline) so they compare with the row
    // engine's inclusive wall times.
    std::vector<obs::OperatorProfile*> slot_profs;
    slot_profs.reserve(nslots);
    slot_profs.push_back(source_prof);
    if (scan_filter != nullptr) slot_profs.push_back(fused_filter_prof);
    for (obs::OperatorProfile* p : step_profs) slot_profs.push_back(p);
    std::vector<ProfAcc> total(nslots);
    for (const auto& task_accs : accs) {
      for (size_t k = 0; k < nslots; ++k) {
        total[k].rows += task_accs[k].rows;
        total[k].batches += task_accs[k].batches;
        total[k].seconds += task_accs[k].seconds;
      }
    }
    double inclusive = 0.0;
    for (size_t k = 0; k < nslots; ++k) {
      inclusive += total[k].seconds;
      obs::OperatorProfile* p = slot_profs[k];
      if (p == nullptr) continue;
      p->rows_out += total[k].rows;
      p->batches += total[k].batches;
      p->seconds += inclusive;
      p->pipeline_id = pipeline_id;
    }
  }
  return Status::OK();
}

Result<Table> ExecNodeImpl(const VecNode& node, ExecContext* ctx) {
  switch (node.op) {
    case VecOp::kHashAggregate: {
      XDBFT_RETURN_NOT_OK(
          ValidateAggSpecs(node.aggs, node.children[0]->schema));
      AggSink sink(node);
      XDBFT_RETURN_NOT_OK(
          RunPipeline(*node.children[0], &sink, ctx));
      return sink.Finish();
    }
    case VecOp::kSort: {
      if (node.sort_keys.size() != node.ascending.size()) {
        return Status::InvalidArgument("sort: keys/direction size mismatch");
      }
      SortSink sink(node);
      XDBFT_RETURN_NOT_OK(RunPipeline(*node.children[0], &sink, ctx));
      return sink.Finish();
    }
    default: {
      // Streaming root (scan / filter / project / join probes): collect.
      CollectSink sink(node.schema);
      XDBFT_RETURN_NOT_OK(RunPipeline(node, &sink, ctx));
      return sink.Finish();
    }
  }
}

Result<Table> ExecNode(const VecNode& node, ExecContext* ctx) {
  // Breaker nodes (everything ExecNodeImpl materializes itself) are
  // charged the inclusive wall time of their whole pipeline plus finish;
  // streaming chains are recorded inside RunPipeline instead.
  const bool breaker =
      node.op == VecOp::kHashAggregate || node.op == VecOp::kSort;
  obs::OperatorProfile* prof =
      breaker ? ctx->ProfileNode(&node) : nullptr;
  if (prof != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<Table> r = ExecNodeImpl(node, ctx);
    prof->seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (r.ok()) {
      prof->rows_out += r->num_rows();
      prof->batches += 1;
    }
    return r;
  }
  return ExecNodeImpl(node, ctx);
}

}  // namespace

Result<Table> ExecuteVectorized(const VecNodePtr& plan,
                                const VecExecOptions& opts) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  VecExecOptions local = opts;
  std::unique_ptr<TaskPool> owned_pool;
  if (local.pool == nullptr && local.num_threads > 1) {
    // num_threads - 1 workers: the calling thread helps in
    // ParallelForEach, so total concurrency is num_threads.
    owned_pool = std::make_unique<TaskPool>(local.num_threads - 1);
    local.pool = owned_pool.get();
  }
  ExecContext ctx;
  ctx.opts = &local;
  if (local.profile != nullptr) {
    BuildProfileSkeleton(plan, local.profile);
    BuildProfileMap(*plan, local.profile, &ctx.profile_map);
  }
  Result<Table> result = ExecNode(*plan, &ctx);
  if (local.profile != nullptr && result.ok()) {
    FinalizeMemoryEstimates(*plan, local.profile);
  }
  return result;
}

}  // namespace xdbft::exec
