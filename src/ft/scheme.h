// The four fault-tolerance schemes compared in the paper's evaluation
// (§5.2): all-mat (Hadoop), no-mat lineage (Shark/Spark), no-mat restart
// (parallel database) and the paper's cost-based scheme, plus write-ahead
// lineage. A scheme is a materialization policy plus a recovery mode.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "ft/enumerator.h"

namespace xdbft::ft {

enum class SchemeKind : int {
  /// Materialize every intermediate; restart only failed sub-plans.
  kAllMat,
  /// Materialize nothing; recompute failed sub-plans from lineage.
  kNoMatLineage,
  /// Materialize nothing; restart the whole query on any failure.
  kNoMatRestart,
  /// This paper: cost-based subset materialization; fine-grained restart.
  kCostBased,
  /// Write-ahead lineage (arXiv:2403.08062): materialize nothing, log
  /// lineage before results flow downstream, replay the log on failure.
  /// Built for pipelined workloads where blocking materialization is the
  /// wrong primitive.
  kWriteAheadLineage,
};

/// \brief Every scheme, in the order comparisons list them and keep ties.
inline constexpr SchemeKind kAllSchemeKinds[] = {
    SchemeKind::kAllMat, SchemeKind::kNoMatLineage, SchemeKind::kNoMatRestart,
    SchemeKind::kCostBased, SchemeKind::kWriteAheadLineage};

const char* SchemeKindName(SchemeKind kind);

/// \brief How the engine recovers when a mid-query failure is detected.
enum class RecoveryMode : int {
  /// Restart only the failed sub-plan (collapsed operator x partition)
  /// from its last materialized inputs.
  kFineGrained,
  /// Restart the entire query from the beginning.
  kFullRestart,
  /// Replay the failed sub-plan from its last *logged* lineage frontier
  /// (write-ahead lineage): durable progress survives the failure and is
  /// re-applied at a replay discount instead of recomputed.
  kWalReplay,
};

/// \brief The recovery mode a cost-based answer runs under. A WAL-enabled
/// model mixes both disciplines: materialization points break the plan
/// into collapsed ops, and write-ahead lineage covers the pipelined work
/// inside each. The executed mode follows the model the costs were
/// computed under.
RecoveryMode CostBasedRecovery(const cost::CostModelParams& model);

/// \brief A scheme instantiated for one query: the plan with its
/// materialization configuration and recovery mode, ready for execution.
struct SchemePlan {
  SchemeKind kind = SchemeKind::kCostBased;
  RecoveryMode recovery = RecoveryMode::kFineGrained;
  plan::Plan plan;
  /// Index of `plan` in the candidate list the scheme was applied to
  /// (0 for the single-plan entry points).
  size_t plan_index = 0;
  MaterializationConfig config;
  /// Cost-model estimate of runtime under failures (dominant-path TPt).
  double estimated_cost = 0.0;
  /// Counters of the search ApplyCostBasedScheme ran for this plan; all
  /// zero for the fixed schemes and for an AdvisorService cache hit,
  /// which ran no search.
  EnumerationStats stats;
};

/// \brief Instantiate `kind` for `plan` under the given cluster/model
/// statistics. For kCostBased this runs findBestFTPlan over the single
/// plan; `options` controls its pruning.
Result<SchemePlan> ApplyScheme(SchemeKind kind, const plan::Plan& plan,
                               const FtCostContext& context,
                               const EnumerationOptions& options = {});

/// \brief Cost-based over multiple candidate plans (the optimizer's
/// top-k), per §3.2.
Result<SchemePlan> ApplyCostBasedScheme(
    const std::vector<plan::Plan>& candidates, const FtCostContext& context,
    const EnumerationOptions& options = {});

/// \brief Every scheme of kAllSchemeKinds instantiated for one plan.
struct SchemeComparison {
  /// Cheapest estimate first; equal estimates keep kAllSchemeKinds order.
  std::vector<SchemePlan> schemes;
  /// The cheapest scheme; on a tie, cost-based.
  SchemeKind recommended = SchemeKind::kCostBased;
};

/// \brief Applies every scheme to `plan` (the cost-based one under
/// `options`) and ranks them by estimated runtime under failures.
Result<SchemeComparison> CompareSchemes(const plan::Plan& plan,
                                        const FtCostContext& context,
                                        const EnumerationOptions& options = {});

}  // namespace xdbft::ft
