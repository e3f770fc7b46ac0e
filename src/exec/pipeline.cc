#include "exec/pipeline.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <utility>

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

using HashTable = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

void IdentitySelection(size_t n, std::vector<int32_t>* sel) {
  sel->resize(n);
  std::iota(sel->begin(), sel->end(), 0);
}

// A morsel in flight: a batch plus an optional selection vector of live
// row indices (in row order). Filters only narrow `sel`; steps and sinks
// that can consume a selection read through it, everything else calls
// Materialize() to compact the batch first. This keeps the common
// filter -> aggregate path free of row movement entirely.
struct Morsel {
  Batch batch;
  std::vector<int32_t> sel;
  bool has_sel = false;

  size_t live_rows() const {
    return has_sel ? sel.size() : batch.num_rows();
  }
  // Batch-row index of the i-th live row.
  size_t row(size_t i) const {
    return has_sel ? static_cast<size_t>(sel[i]) : i;
  }
  // Compact the batch down to the selected rows and drop the selection.
  void Materialize() {
    if (!has_sel) return;
    for (auto& col : batch.columns) {
      for (size_t i = 0; i < sel.size(); ++i) {
        col[i] = std::move(col[static_cast<size_t>(sel[i])]);
      }
      col.resize(sel.size());
    }
    has_sel = false;
  }
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
  virtual void Consume(Morsel&& morsel) = 0;
  virtual Result<Table> Finish() = 0;
};

class CollectSink final : public Sink {
 public:
  explicit CollectSink(const Schema& schema) { out_.schema = schema; }

  void Consume(Morsel&& morsel) override {
    morsel.Materialize();
    AppendBatchToTable(std::move(morsel.batch), &out_);
  }
  Result<Table> Finish() override { return std::move(out_); }

 private:
  Table out_;
};

class AggSink final : public Sink {
 public:
  explicit AggSink(const VecNode& node)
      : node_(node), int_keys_(node.group_by.size() == 1) {}

  void Consume(Morsel&& morsel) override {
    const Batch& batch = morsel.batch;
    const size_t n = morsel.live_rows();
    if (n == 0) return;
    // Each argument is either read directly from its batch column (bare
    // column refs, the common case; indexed by batch row) or evaluated
    // vectorized over the live rows into a scratch vector (indexed by
    // live position); null arg = COUNT(*).
    arg_vals_.resize(node_.aggs.size());
    arg_cols_.assign(node_.aggs.size(), nullptr);
    direct_.assign(node_.aggs.size(), true);
    bool need_sel = false;
    for (size_t i = 0; i < node_.aggs.size(); ++i) {
      const auto& arg = node_.aggs[i].arg;
      if (arg == nullptr) continue;
      if (arg->op() == ExprOp::kColumn) {
        arg_cols_[i] =
            &batch.columns[static_cast<size_t>(arg->column_index())];
      } else {
        need_sel = true;
      }
    }
    if (need_sel) {
      const std::vector<int32_t>* sel = &morsel.sel;
      if (!morsel.has_sel) {
        IdentitySelection(n, &sel_);
        sel = &sel_;
      }
      for (size_t i = 0; i < node_.aggs.size(); ++i) {
        if (node_.aggs[i].arg != nullptr && arg_cols_[i] == nullptr) {
          node_.aggs[i].arg->EvalVector(batch, *sel, &arg_vals_[i]);
          arg_cols_[i] = &arg_vals_[i];
          direct_[i] = false;
        }
      }
    }
    for (size_t pos = 0; pos < n; ++pos) {
      const size_t r = morsel.row(pos);
      size_t slot;
      if (int_keys_) {
        // Single int64 group key: index by the raw integer, skipping the
        // per-row variant hash of the generic Row index. Demotes to the
        // generic index (same slots, same first-occurrence order) the
        // first time a non-int64 key shows up.
        const Value& kv =
            batch.columns[static_cast<size_t>(node_.group_by[0])][r];
        if (kv.type() == ValueType::kInt64) {
          const auto [it, inserted] =
              int_index_.try_emplace(kv.AsInt64(), keys_.size());
          if (inserted) {
            keys_.push_back(Row{kv});
            states_.emplace_back(node_.aggs.size());
          }
          slot = it->second;
        } else {
          int_keys_ = false;
          for (size_t s = 0; s < keys_.size(); ++s) index_.emplace(keys_[s], s);
          slot = GenericSlot(batch, r);
        }
      } else {
        slot = GenericSlot(batch, r);
      }
      auto& states = states_[slot];
      for (size_t i = 0; i < node_.aggs.size(); ++i) {
        if (node_.aggs[i].arg == nullptr) {
          AccumulateStar(&states[i]);
        } else {
          AccumulateValue(node_.aggs[i].func,
                          (*arg_cols_[i])[direct_[i] ? r : pos],
                          &states[i]);
        }
      }
    }
  }

  Result<Table> Finish() override {
    if (keys_.empty() && node_.group_by.empty()) {
      keys_.push_back(Row{});  // empty input still yields one global row
      states_.emplace_back(node_.aggs.size());
    }
    Table out;
    out.schema = node_.schema;
    out.rows.reserve(keys_.size());
    for (size_t s = 0; s < keys_.size(); ++s) {
      Row row = std::move(keys_[s]);
      for (size_t i = 0; i < node_.aggs.size(); ++i) {
        row.push_back(FinalizeAgg(node_.aggs[i].func, states_[s][i]));
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

 private:
  size_t GenericSlot(const Batch& batch, size_t r) {
    key_.clear();
    for (const int g : node_.group_by) {
      key_.push_back(batch.columns[static_cast<size_t>(g)][r]);
    }
    const auto it = index_.find(key_);
    if (it != index_.end()) return it->second;
    const size_t slot = keys_.size();
    index_.emplace(key_, slot);
    keys_.push_back(key_);
    states_.emplace_back(node_.aggs.size());
    return slot;
  }

  const VecNode& node_;
  std::vector<int32_t> sel_;
  std::vector<std::vector<Value>> arg_vals_;
  std::vector<const std::vector<Value>*> arg_cols_;
  std::vector<char> direct_;  // arg i indexed by batch row vs live position
  Row key_;  // scratch, reused per row
  bool int_keys_ = false;
  std::unordered_map<int64_t, size_t> int_index_;
  std::unordered_map<Row, size_t, RowHash, RowEq> index_;
  std::vector<Row> keys_;  // first-occurrence order
  std::vector<std::vector<AggState>> states_;
};

class SortSink final : public Sink {
 public:
  explicit SortSink(const VecNode& node) : node_(node) {
    out_.schema = node.schema;
  }

  void Consume(Morsel&& morsel) override {
    morsel.Materialize();
    AppendBatchToTable(std::move(morsel.batch), &out_);
  }

  Result<Table> Finish() override {
    SortRows(&out_.rows, node_.sort_keys, node_.ascending, node_.limit);
    return std::move(out_);
  }

 private:
  const VecNode& node_;
  Table out_;
};

struct ExecContext {
  const VecExecOptions* opts = nullptr;
  // Materialized pipeline-breaker outputs and build hash tables; deques so
  // addresses stay stable while later pipelines reference them.
  std::deque<Table> owned_tables;
  std::deque<HashTable> hash_tables;
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

Result<Table> ExecNode(const VecNode& node, ExecContext* ctx);

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
          // Filter directly over a table scan: fuse it into batch
          // formation so dropped rows are never copied. EvalSelection is
          // defined as "positions where EvalBool would return true", so
          // evaluating per source row preserves the selection contract
          // (and the row order) exactly.
          scan_filter = pred;
          fused_filter_prof = ctx->ProfileNode(cur);
        } else {
          steps.push_back([pred](Morsel* m) {
            if (!m->has_sel) {
              IdentitySelection(m->batch.num_rows(), &m->sel);
              m->has_sel = true;
            }
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
          if (!m->has_sel) IdentitySelection(m->batch.num_rows(), &m->sel);
          Batch out;
          out.columns.resize(exprs.size());
          for (size_t i = 0; i < exprs.size(); ++i) {
            exprs[i]->EvalVector(m->batch, m->sel, &out.columns[i]);
          }
          m->batch = std::move(out);
          m->has_sel = false;
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
        ctx->owned_tables.push_back(std::move(built));
        const Table& bt = ctx->owned_tables.back();
        ctx->hash_tables.emplace_back();
        HashTable& ht = ctx->hash_tables.back();
        for (const Row& row : bt.rows) {
          ht[ExtractKey(row, cur->build_keys)].push_back(row);
        }
        const HashTable* htp = &ht;
        const std::vector<int> pkeys = cur->probe_keys;
        const size_t build_width = bt.schema.num_columns();
        steps.push_back([htp, pkeys, build_width](Morsel* m) {
          const size_t n = m->live_rows();
          const size_t pw = m->batch.num_columns();
          Batch out;
          out.columns.resize(pw + build_width);
          Row key;
          for (size_t i = 0; i < n; ++i) {
            const size_t r = m->row(i);
            key.clear();
            for (const int k : pkeys) {
              key.push_back(m->batch.columns[static_cast<size_t>(k)][r]);
            }
            const auto it = htp->find(key);
            if (it == htp->end()) continue;
            // Matches in build-insertion order: probe columns first, then
            // build columns — the row operator's output layout and order.
            for (const Row& brow : it->second) {
              for (size_t c = 0; c < pw; ++c) {
                out.columns[c].push_back(m->batch.columns[c][r]);
              }
              for (size_t c = 0; c < build_width; ++c) {
                out.columns[pw + c].push_back(brow[c]);
              }
            }
          }
          m->batch = std::move(out);
          m->has_sel = false;
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
  const size_t nrows = source->num_rows();
  const size_t nmorsels = nrows == 0 ? 0 : (nrows + morsel - 1) / morsel;

  // Read only by the profile fold, which metrics-off builds compile out.
  const int pipeline_id = ctx->next_pipeline_id++;

  // Profiling slot layout per task: [0] source batch formation, [1] the
  // fused filter when present, then one slot per streaming step. The
  // morsel loop writes only its own task's accumulator row; the fold
  // below is the single synchronization point.
  const bool profiling = !ctx->profile_map.empty();
  const size_t nslots = 1 + (scan_filter != nullptr ? 1 : 0) + steps.size();
  std::vector<std::vector<ProfAcc>> accs;

  const auto run_morsel = [&](size_t m, Morsel* out, ProfAcc* acc) {
    const size_t lo = m * morsel;
    const size_t hi = std::min(nrows, lo + morsel);
    std::chrono::steady_clock::time_point t0;
    if (acc != nullptr) t0 = std::chrono::steady_clock::now();
    if (scan_filter != nullptr) {
      // Fused scan-filter: evaluate the predicate on the source rows in
      // place, then copy only the survivors into the batch.
      Batch* b = &out->batch;
      const size_t ncols = source->schema.num_columns();
      b->Reset(ncols);
      scan_filter->FilterRows(source->rows, lo, hi, &out->sel);
      for (const int32_t i : out->sel) {
        const Row& row = source->rows[lo + static_cast<size_t>(i)];
        for (size_t c = 0; c < ncols; ++c) b->columns[c].push_back(row[c]);
      }
    } else {
      BatchFromTable(*source, lo, hi, &out->batch);
    }
    out->has_sel = false;
    if (acc != nullptr) {
      // The scan reports the rows it read (hi - lo); the fused filter
      // reports the survivors — the same counts the row operators yield.
      acc[0].seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      acc[0].batches += 1;
      acc[0].rows += hi - lo;
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
    for (auto& m : outs) sink->Consume(std::move(m));
  } else {
    // The sinks read or move individual values out of the morsel but
    // never steal its buffers, so one morsel's capacity (batch columns
    // and selection vector) is reused for the whole loop (BatchFromTable
    // resets the batch).
    if (profiling) accs.assign(1, std::vector<ProfAcc>(nslots));
    ProfAcc* acc = profiling ? accs[0].data() : nullptr;
    Morsel m;
    for (size_t i = 0; i < nmorsels; ++i) {
      run_morsel(i, &m, acc);
      sink->Consume(std::move(m));
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
