// FtPlanEnumerator: the paper's findBestFTPlan procedure (Listing 1).
// Given the top-k candidate execution plans produced by a cost-based
// optimizer, enumerates materialization configurations over each plan's
// free operators, estimates every [P, M_P] via the collapsed-plan cost
// model, applies pruning rules 1-3, and returns the fault-tolerant plan
// with the shortest dominant path.
//
// The search runs on a work-stealing TaskPool (zero workers, i.e. inline
// on the caller, at one thread): candidate plans and, within a plan,
// contiguous mask ranges of the configuration space become tasks; rule-3
// state is shared through an atomic cost bound plus a sharded,
// mutex-striped dominant-path memo; and the winner is selected by the
// total order (cost, plan index, mask), so the result is bit-identical
// to the 1-thread search at any thread count (see DESIGN.md
// "Concurrency model").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "ft/ft_cost.h"
#include "ft/pruning.h"

namespace xdbft::obs {
class TraceRecorder;
}  // namespace xdbft::obs

namespace xdbft::ft {

/// \brief Knobs of the enumeration procedure.
struct EnumerationOptions {
  PruningOptions pruning;
  /// Guard against runaway 2^f enumeration; FindBest fails if a candidate
  /// plan still has more free operators after rules 1-2.
  int max_free_operators = 24;
  /// Worker threads for FindBest: 1 = the caller alone (default), 0 = use
  /// std::thread::hardware_concurrency(), N > 1 = that many workers. The
  /// selected [P, M_P] and cost are identical at every setting.
  int num_threads = 1;
  /// Optional: record one span per enumeration task on lane
  /// (trace_pid, worker id) — the per-thread timeline of the search.
  obs::TraceRecorder* trace = nullptr;
  int trace_pid = 0;

  /// \brief Reject structurally unusable options (negative thread counts,
  /// free-operator budgets outside the 62-bit mask range) up front instead
  /// of silently misbehaving deep in the search.
  Status Validate() const;
};

/// \brief Counters describing one FindBest run (feeds Fig. 13).
struct EnumerationStats {
  /// Candidate plans passed in (the optimizer's top-k / all join orders).
  uint64_t candidate_plans = 0;
  /// Sum over plans of 2^{#free ops before rules 1-2}: the unpruned
  /// fault-tolerant-plan space.
  uint64_t total_ft_plans_unpruned = 0;
  /// Sum over plans of 2^{#free ops after rules 1-2}: configurations
  /// actually enumerated.
  uint64_t ft_plans_enumerated = 0;
  /// Operators marked non-materializable by rule 1 / rule 2.
  uint64_t rule1_ops_marked = 0;
  uint64_t rule2_ops_marked = 0;
  /// FT plans where rule 3 stopped the path enumeration with at least one
  /// path left unanalyzed (the paper's Fig. 13 counts these and credits
  /// half, since the rule may fire on the first or on the last path).
  uint64_t rule3_early_stops = 0;
  /// FT plans rejected by rule 3 (regardless of whether paths remained).
  uint64_t rule3_rejections = 0;
  uint64_t rule3_rpt_hits = 0;   // RPt > bestT (no cost-model call needed)
  uint64_t rule3_tpt_hits = 0;   // TPt > bestT
  uint64_t rule3_memo_hits = 0;  // Eq. 9 dominance over a memoized path
  /// Memo lookups that did not prune (the complement of rule3_memo_hits;
  /// hits/(hits+misses) is the memo's effectiveness).
  uint64_t rule3_memo_misses = 0;
  /// Execution paths whose TPt was computed.
  uint64_t paths_evaluated = 0;
  /// Execution paths rule 3 skipped without analyzing them (the per-path
  /// share of the search space pruned by rule 3; the aggregate
  /// ft_plans_enumerated count cannot distinguish these).
  uint64_t rule3_paths_skipped = 0;
  /// Parallel-execution accounting (informational; not search counters):
  /// enumeration tasks run and how many a worker stole from a sibling.
  uint64_t tasks_executed = 0;
  uint64_t tasks_stolen = 0;

  /// \brief Add every counter of `other` into this (the join step of the
  /// per-thread stats merge; exact under concurrency because each worker
  /// slot is written by one thread only).
  void MergeFrom(const EnumerationStats& other);

  std::string ToString() const;
};

/// \brief Copies `s` into a RunReport metrics map under "enumerator.*"
/// (e.g. "enumerator.pruned_rule1" = rule1_ops_marked).
void AddRunMetrics(const EnumerationStats& s,
                   std::map<std::string, double>* metrics);

/// \brief The chosen fault-tolerant plan [P, M_P].
struct FtPlanChoice {
  /// Index into the candidate list FindBest was given.
  size_t plan_index = 0;
  /// The chosen plan, with rule-1/2 markings applied.
  plan::Plan plan;
  MaterializationConfig config;
  /// Estimated runtime under failures (dominant-path TPt) — bestT.
  double estimated_cost = 0.0;
  CollapsedPath dominant_path;
};

/// \brief Implements findBestFTPlan (Listing 1).
class FtPlanEnumerator {
 public:
  explicit FtPlanEnumerator(FtCostContext context,
                            EnumerationOptions options = {})
      : model_(context), options_(options) {}

  /// \brief Enumerate [P, M_P] over all candidate plans and return the one
  /// with the shortest dominant path. Memoized rule-3 state (bestT and
  /// dominant paths) is shared across all candidates, as §4.3 recommends.
  /// Deterministic at any options_.num_threads: ties on cost are broken by
  /// the canonical plan id (plan index, then configuration mask).
  Result<FtPlanChoice> FindBest(const std::vector<plan::Plan>& candidates);

  /// \brief Convenience: single-plan form.
  Result<FtPlanChoice> FindBest(const plan::Plan& plan);

  /// \brief Enumerate every configuration of one plan and return the
  /// estimates in enumeration (mask) order — used by the accuracy and
  /// robustness experiments (Fig. 12b, Table 3). No pruning is applied.
  Result<std::vector<std::pair<MaterializationConfig, double>>>
  EnumerateAll(const plan::Plan& plan) const;

  const EnumerationStats& stats() const { return stats_; }
  const FtCostModel& cost_model() const { return model_; }

  /// \brief Worker count `num_threads` resolves to (0 -> hardware
  /// concurrency, minimum 1).
  static int ResolveThreads(int num_threads);

 private:
  struct PreparedPlan;
  struct SearchState;
  struct MaskRange {
    size_t plan_index = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
  };

  /// \brief Rules 1-2 pre-pass over one candidate (plan copy + marking).
  PreparedPlan Prepare(const plan::Plan& candidate, size_t plan_index) const;
  /// \brief Evaluate configurations [lo, hi) of one prepared plan against
  /// the shared search state, accumulating into `local` (single-writer).
  void EvaluateMaskRange(const PreparedPlan& prepared, const MaskRange& range,
                         SearchState* state, EnumerationStats* local) const;

  FtCostModel model_;
  EnumerationOptions options_;
  EnumerationStats stats_;
  std::unique_ptr<TaskPool> pool_;  // lazily created, reused across calls
};

}  // namespace xdbft::ft
