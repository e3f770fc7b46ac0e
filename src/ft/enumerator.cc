#include "ft/enumerator.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/string_util.h"
#include "obs/trace.h"

namespace xdbft::ft {

using plan::Plan;

namespace {

/// Lower an atomic double to `v` if `v` is smaller (lock-free min).
void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Status EnumerationOptions::Validate() const {
  if (max_free_operators < 0 || max_free_operators > 62) {
    return Status::InvalidArgument(
        "max_free_operators must be in [0, 62] (configuration masks are "
        "64-bit)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency)");
  }
  return Status::OK();
}

void EnumerationStats::MergeFrom(const EnumerationStats& other) {
  candidate_plans += other.candidate_plans;
  total_ft_plans_unpruned += other.total_ft_plans_unpruned;
  ft_plans_enumerated += other.ft_plans_enumerated;
  rule1_ops_marked += other.rule1_ops_marked;
  rule2_ops_marked += other.rule2_ops_marked;
  rule3_early_stops += other.rule3_early_stops;
  rule3_rejections += other.rule3_rejections;
  rule3_rpt_hits += other.rule3_rpt_hits;
  rule3_tpt_hits += other.rule3_tpt_hits;
  rule3_memo_hits += other.rule3_memo_hits;
  rule3_memo_misses += other.rule3_memo_misses;
  paths_evaluated += other.paths_evaluated;
  rule3_paths_skipped += other.rule3_paths_skipped;
  tasks_executed += other.tasks_executed;
  tasks_stolen += other.tasks_stolen;
}

std::string EnumerationStats::ToString() const {
  return StrFormat(
      "EnumerationStats(plans=%llu, ft_plans=%llu/%llu, rule1_marked=%llu, "
      "rule2_marked=%llu, rule3_stops=%llu [RPt=%llu TPt=%llu memo=%llu/%llu], "
      "paths=%llu evaluated, %llu skipped, tasks=%llu (%llu stolen))",
      static_cast<unsigned long long>(candidate_plans),
      static_cast<unsigned long long>(ft_plans_enumerated),
      static_cast<unsigned long long>(total_ft_plans_unpruned),
      static_cast<unsigned long long>(rule1_ops_marked),
      static_cast<unsigned long long>(rule2_ops_marked),
      static_cast<unsigned long long>(rule3_early_stops),
      static_cast<unsigned long long>(rule3_rpt_hits),
      static_cast<unsigned long long>(rule3_tpt_hits),
      static_cast<unsigned long long>(rule3_memo_hits),
      static_cast<unsigned long long>(rule3_memo_misses),
      static_cast<unsigned long long>(paths_evaluated),
      static_cast<unsigned long long>(rule3_paths_skipped),
      static_cast<unsigned long long>(tasks_executed),
      static_cast<unsigned long long>(tasks_stolen));
}

void AddRunMetrics(const EnumerationStats& s,
                   std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  m["enumerator.plans"] = static_cast<double>(s.candidate_plans);
  m["enumerator.configs_unpruned"] =
      static_cast<double>(s.total_ft_plans_unpruned);
  m["enumerator.configs_enumerated"] =
      static_cast<double>(s.ft_plans_enumerated);
  m["enumerator.pruned_rule1"] = static_cast<double>(s.rule1_ops_marked);
  m["enumerator.pruned_rule2"] = static_cast<double>(s.rule2_ops_marked);
  m["enumerator.pruned_rule3"] = static_cast<double>(s.rule3_rejections);
  m["enumerator.rule3_paths_skipped"] =
      static_cast<double>(s.rule3_paths_skipped);
  m["enumerator.memo_hits"] = static_cast<double>(s.rule3_memo_hits);
  m["enumerator.memo_misses"] = static_cast<double>(s.rule3_memo_misses);
  m["enumerator.paths_evaluated"] = static_cast<double>(s.paths_evaluated);
  m["enumerator.tasks"] = static_cast<double>(s.tasks_executed);
  m["enumerator.tasks_stolen"] = static_cast<double>(s.tasks_stolen);
}

int FtPlanEnumerator::ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// One candidate after the rules-1/2 pre-pass. The deterministic counters
/// (space sizes, per-rule marks) are computed here, per plan, so their
/// totals are exact regardless of how the evaluation work is scheduled.
struct FtPlanEnumerator::PreparedPlan {
  Plan plan;
  std::vector<plan::OpId> free_ops;
  uint64_t num_configs = 0;
  uint64_t unpruned = 0;
  uint64_t rule1_marked = 0;
  uint64_t rule2_marked = 0;
  Status status;  // OK unless this candidate is rejected
};

/// State shared by every enumeration task of one FindBest call.
struct FtPlanEnumerator::SearchState {
  /// Rule-3 cost bound (bestT). Monotonically non-increasing; stale reads
  /// only weaken pruning, never correctness. Pruning tests are strict
  /// (cost > bound), so a configuration tying the final best always
  /// survives to the deterministic tie-break below.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};
  /// Rule-3 dominant paths of this search only (Eq. 9).
  ConcurrentDominantPathMemo memo;
  std::atomic<bool> failed{false};
  /// Parameters of the per-configuration cost pass (ComputeCostPass).
  const FailureParams fparams;
  const WalParams wal;
  const bool use_memo;

  std::mutex mu;  // guards the candidate + error fields
  bool found = false;
  double best_cost = std::numeric_limits<double>::infinity();
  size_t best_plan = 0;
  uint64_t best_mask = 0;
  bool has_error = false;
  size_t error_plan = 0;
  uint64_t error_mask = 0;
  Status error;

  SearchState(FailureParams fp, WalParams wp, bool memoize)
      : fparams(fp), wal(wp), use_memo(memoize) {}

  /// Keep the error with the smallest (plan, mask) key so the reported
  /// failure does not depend on task interleaving.
  void RecordError(size_t plan_index, uint64_t mask, Status s) {
    std::lock_guard<std::mutex> lock(mu);
    if (!has_error || std::tie(plan_index, mask) <
                          std::tie(error_plan, error_mask)) {
      has_error = true;
      error_plan = plan_index;
      error_mask = mask;
      error = std::move(s);
    }
    failed.store(true, std::memory_order_relaxed);
  }
};

FtPlanEnumerator::PreparedPlan FtPlanEnumerator::Prepare(
    const Plan& candidate, size_t plan_index) const {
  PreparedPlan out;
  out.plan = candidate;  // copy: rules 1-2 mutate constraints
  out.status = out.plan.Validate();
  if (!out.status.ok()) return out;

  const size_t free_before = EnumerableOperators(out.plan).size();
  if (free_before > 62) {
    out.status = Status::InvalidArgument("plan has too many free operators");
    return out;
  }
  out.unpruned = uint64_t{1} << free_before;

  // Rule 2 runs first: it only consults the operator's own collapsed
  // runtime, while rule 1 quantifies over a parent's *still-free*
  // children — operators rule 2 already marked drop out of that
  // quantifier, so this order marks a superset of (never fewer ops
  // than) the reverse order. Both rules only add kNeverMaterialize
  // constraints that are provably cost-safe, so more is better.
  // Rules 1-2 are proven cost-safe for recompute-from-inputs recovery
  // only: under write-ahead lineage a skipped materialization also
  // changes the log-write volume, which their proofs do not account for.
  // WAL-enabled searches keep rule 3 (exact branch-and-bound) and skip
  // the static marks.
  const bool static_rules_safe = !model_.context().model.wal_enabled;
  if (options_.pruning.rule2 && static_rules_safe) {
    out.rule2_marked = static_cast<uint64_t>(
        ApplyPruningRule2(&out.plan, model_.context()));
  }
  if (options_.pruning.rule1 && static_rules_safe) {
    out.rule1_marked = static_cast<uint64_t>(ApplyPruningRule1(
        &out.plan, model_.context().model.pipe_constant));
  }

  out.free_ops = EnumerableOperators(out.plan);
  if (static_cast<int>(out.free_ops.size()) > options_.max_free_operators) {
    out.status = Status::InvalidArgument(StrFormat(
        "plan %zu has %zu free operators after pruning (max %d); raise "
        "EnumerationOptions::max_free_operators or add constraints",
        plan_index, out.free_ops.size(), options_.max_free_operators));
    return out;
  }
  out.num_configs = uint64_t{1} << out.free_ops.size();
  return out;
}

void FtPlanEnumerator::EvaluateMaskRange(const PreparedPlan& prepared,
                                         const MaskRange& range,
                                         SearchState* state,
                                         EnumerationStats* local) const {
  const double pipe = model_.context().model.pipe_constant;
  const bool rule3 = options_.pruning.rule3;
  // Range-local buffers, rewritten for every mask: the configuration
  // (only the free operators change), the collapsed plan, the cost pass,
  // the dominant path and one path's (durable t, refetch) costs for the
  // memo.
  MaterializationConfig config = MaterializationConfig::NoMat(prepared.plan);
  CollapsedPlan cp;
  CostPassResult pass;
  CollapsedPath dom_path;
  std::vector<PathOpCost> path_costs;
  const auto fill_path_costs = [&](const CollapsedPath& path) {
    path_costs.clear();
    for (CollapsedId id : path) {
      const CostPassOp& op = pass.ops[static_cast<size_t>(id)];
      path_costs.push_back(PathOpCost{op.durable_t, op.refetch});
    }
  };
  for (uint64_t mask = range.lo; mask < range.hi; ++mask) {
    if (state->failed.load(std::memory_order_relaxed)) return;
    config.SetFreeMask(prepared.free_ops, mask);
    const Status collapsed = cp.Rebuild(prepared.plan, config, pipe);
    if (!collapsed.ok()) {
      state->RecordError(range.plan_index, mask, collapsed);
      return;
    }

    // The cost pass: every collapsed operator's durable t, refetch
    // charge and T(c) under this configuration.
    ComputeCostPass(cp, state->fparams, state->wal, &pass);

    // Path enumeration with rule-3 early stopping (Listing 1 lines 9-13
    // plus §4.3). Every test is strict (> bound, strict Eq. 9 dominance):
    // a pruned configuration provably costs more than bestT, so a
    // configuration tying the final best is never eliminated and the
    // (cost, plan, mask) tie-break stays exact at any thread count.
    double dom_cost = 0.0;
    dom_path.clear();
    bool pruned = false;
    const size_t visited = cp.ForEachPath([&](const CollapsedPath& path) {
      const double bound = state->bound.load(std::memory_order_relaxed);
      if (rule3) {
        // Test 1: RPt > bestT — no failure math needed. RPt sums the
        // durable t (runtime plus the WAL log-write overhead), a lower
        // bound on TPt. Rule 3 and the memo must see the durable t: per-op
        // TPt is monotone in it, which the plain runtime alone does not
        // guarantee once lineage volume varies per configuration.
        double rpt = 0.0;
        for (CollapsedId id : path) {
          rpt += pass.ops[static_cast<size_t>(id)].durable_t;
        }
        if (rpt > bound) {
          ++local->rule3_rpt_hits;
          pruned = true;
          return false;
        }
        // Extension: Eq. 9 dominance over a memoized dominant path, in
        // both cost dimensions (durable t, per-attempt refetch).
        if (state->use_memo && !state->memo.empty()) {
          fill_path_costs(path);
          SortPathCosts(&path_costs);
          if (state->memo.DominatesSorted(path_costs)) {
            ++local->rule3_memo_hits;
            pruned = true;
            return false;
          }
          ++local->rule3_memo_misses;
        }
      }
      ++local->paths_evaluated;
      const double tpt = pass.PathCost(path);
      if (rule3 && tpt > bound) {
        // Test 2: TPt > bestT.
        ++local->rule3_tpt_hits;
        pruned = true;
        return false;
      }
      if (tpt > dom_cost) {
        dom_cost = tpt;
        dom_path = path;
      }
      return true;
    });
    if (pruned) {
      ++local->rule3_rejections;
      // Only count as an early stop if remaining paths were actually
      // skipped; firing on the last path saves nothing (§5.5).
      const size_t total_paths = cp.CountPaths();
      if (visited < total_paths) {
        ++local->rule3_early_stops;
        local->rule3_paths_skipped +=
            static_cast<uint64_t>(total_paths - visited);
      }
      continue;
    }
    if (dom_path.empty()) {
      state->RecordError(range.plan_index, mask,
                         Status::Internal("collapsed plan produced no paths"));
      return;
    }

    // Deterministic acceptance: strictly smaller (cost, plan, mask) wins.
    const size_t plan_index = range.plan_index;
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->found ||
          std::tie(dom_cost, plan_index, mask) <
              std::tie(state->best_cost, state->best_plan,
                       state->best_mask)) {
        state->found = true;
        state->best_cost = dom_cost;
        state->best_plan = plan_index;
        state->best_mask = mask;
        accepted = true;
      }
    }
    if (accepted) {
      AtomicMin(&state->bound, dom_cost);
      if (rule3 && state->use_memo) {
        fill_path_costs(dom_path);
        state->memo.Record(path_costs, dom_cost);
      }
    }
  }
}

Result<FtPlanChoice> FtPlanEnumerator::FindBest(
    const std::vector<Plan>& candidates) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate plans");
  }
  XDBFT_RETURN_NOT_OK(model_.context().Validate());
  XDBFT_RETURN_NOT_OK(options_.Validate());
  stats_ = EnumerationStats{};
  stats_.candidate_plans = candidates.size();

  // One thread is the same search on a pool without workers: every task
  // runs inline on the caller.
  const int threads = ResolveThreads(options_.num_threads);
  const int workers = threads > 1 ? threads : 0;
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<TaskPool>(workers);
  }
  const TaskPoolStats pool_before = pool_->stats();
  obs::TraceRecorder* trace = options_.trace;
  if (trace != nullptr) {
    for (int t = 0; t < workers; ++t) {
      trace->SetThreadName(options_.trace_pid, t,
                           "enum worker " + std::to_string(t));
    }
    trace->SetThreadName(options_.trace_pid, workers, "enum caller");
  }

  // Phase 1: rules-1/2 pre-pass, one independent task per candidate.
  const size_t num_plans = candidates.size();
  std::vector<PreparedPlan> prepared(num_plans);
  pool_->ParallelForEach(num_plans, [&](size_t i) {
    prepared[i] = Prepare(candidates[i], i);
  });
  // Accumulate the deterministic counters in plan order; report the first
  // rejected candidate exactly like the sequential walk would.
  for (size_t i = 0; i < num_plans; ++i) {
    if (!prepared[i].status.ok()) return prepared[i].status;
    stats_.total_ft_plans_unpruned += prepared[i].unpruned;
    stats_.rule1_ops_marked += prepared[i].rule1_marked;
    stats_.rule2_ops_marked += prepared[i].rule2_marked;
    stats_.ft_plans_enumerated += prepared[i].num_configs;
  }

  // Phase 2: carve the configuration space into contiguous mask ranges —
  // within-plan subtrees of the enumeration — sized for ~8 tasks per
  // worker so stealing can rebalance skew from pruning.
  uint64_t total_configs = 0;
  for (const PreparedPlan& pp : prepared) total_configs += pp.num_configs;
  const uint64_t target_tasks =
      workers > 0 ? static_cast<uint64_t>(workers) * 8 : 1;
  const uint64_t masks_per_task =
      std::max<uint64_t>(1, total_configs / std::max<uint64_t>(
                                                1, target_tasks));
  std::vector<MaskRange> tasks;
  for (size_t pi = 0; pi < num_plans; ++pi) {
    for (uint64_t lo = 0; lo < prepared[pi].num_configs;
         lo += masks_per_task) {
      tasks.push_back(MaskRange{
          pi, lo, std::min(prepared[pi].num_configs, lo + masks_per_task)});
    }
  }

  // Phase 3: evaluate. Each worker slot owns one stats accumulator
  // (single-writer); the slots are merged below — the per-thread snapshot
  // merge that keeps the totals exact under concurrency.
  SearchState state(model_.context().MakeFailureParams(),
                    model_.context().MakeWalParams(),
                    options_.pruning.memoize_dominant_paths);
  std::vector<EnumerationStats> per_slot(static_cast<size_t>(workers) + 1);
  pool_->ParallelForEach(tasks.size(), [&](size_t i) {
    const int worker = pool_->CurrentWorkerId();
    const size_t slot =
        worker >= 0 ? static_cast<size_t>(worker)
                    : static_cast<size_t>(workers);  // the caller
    const double ts = trace != nullptr ? trace->NowMicros() : 0.0;
    EvaluateMaskRange(prepared[tasks[i].plan_index], tasks[i], &state,
                      &per_slot[slot]);
    if (trace != nullptr) {
      trace->AddComplete(
          "enum.chunk", "enumerator", ts, trace->NowMicros() - ts,
          options_.trace_pid, static_cast<int>(slot),
          {obs::IntArg("plan", static_cast<int64_t>(tasks[i].plan_index)),
           obs::IntArg("mask_lo", static_cast<int64_t>(tasks[i].lo)),
           obs::IntArg("mask_hi", static_cast<int64_t>(tasks[i].hi))});
    }
  });
  for (const EnumerationStats& slot : per_slot) stats_.MergeFrom(slot);
  stats_.tasks_executed += tasks.size();
  stats_.tasks_stolen +=
      pool_->stats().tasks_stolen - pool_before.tasks_stolen;

  if (state.has_error) return state.error;
  if (!state.found) {
    return Status::Internal("enumeration found no fault-tolerant plan");
  }

  // Reconstruct the winner from its (plan, mask) id — cheaper than
  // copying plan + path under the candidate lock on every improvement,
  // and exactly reproducible: Estimate runs the same cost pass.
  const PreparedPlan& wp = prepared[state.best_plan];
  FtPlanChoice best;
  best.plan_index = state.best_plan;
  best.plan = wp.plan;
  best.config = MaterializationConfig::FromFreeMask(wp.plan, state.best_mask);
  XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate est,
                         model_.Estimate(wp.plan, best.config));
  best.estimated_cost = est.dominant_cost;
  best.dominant_path = std::move(est.dominant_path);
  return best;
}

Result<FtPlanChoice> FtPlanEnumerator::FindBest(const Plan& plan) {
  return FindBest(std::vector<Plan>{plan});
}

Result<std::vector<std::pair<MaterializationConfig, double>>>
FtPlanEnumerator::EnumerateAll(const Plan& plan) const {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(model_.context().Validate());
  const std::vector<plan::OpId> free_ops = EnumerableOperators(plan);
  if (free_ops.size() > 20) {
    return Status::InvalidArgument(
        "EnumerateAll supports at most 20 free operators");
  }
  std::vector<std::pair<MaterializationConfig, double>> out;
  const uint64_t num_configs = uint64_t{1} << free_ops.size();
  out.reserve(num_configs);
  for (uint64_t mask = 0; mask < num_configs; ++mask) {
    const MaterializationConfig config =
        MaterializationConfig::FromFreeMask(plan, mask);
    XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate est,
                           model_.Estimate(plan, config));
    out.emplace_back(config, est.dominant_cost);
  }
  return out;
}

}  // namespace xdbft::ft
