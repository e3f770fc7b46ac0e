#include "ft/scheme.h"

#include <algorithm>
#include <limits>

namespace xdbft::ft {

const char* SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kAllMat:
      return "all-mat";
    case SchemeKind::kNoMatLineage:
      return "no-mat (lineage)";
    case SchemeKind::kNoMatRestart:
      return "no-mat (restart)";
    case SchemeKind::kCostBased:
      return "cost-based";
    case SchemeKind::kWriteAheadLineage:
      return "write-ahead lineage";
  }
  return "?";
}

RecoveryMode CostBasedRecovery(const cost::CostModelParams& model) {
  return model.wal_enabled ? RecoveryMode::kWalReplay
                           : RecoveryMode::kFineGrained;
}

namespace {

/// Analytic T for a no-mat plan under *full-restart* recovery: the whole
/// query is one retry unit of duration makespan, killed by the first
/// failure of ANY node (rate n/MTBF — not the single-machine process the
/// fine-grained dominant-path model prices). Any burst event also kills
/// the query regardless of its fan-out, and the success target applies to
/// the one query-level process directly (no per-partition S^(1/n)
/// scaling).
Result<double> EstimateFullRestartCost(const plan::Plan& plan,
                                       const MaterializationConfig& config,
                                       const FtCostContext& context) {
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, config, context.model.pipe_constant));
  const double makespan = cp.MakespanNoFailure();
  FailureParams q = context.MakeFailureParams();
  q.mtbf_cost = context.cluster.mtbf_seconds * context.model.cost_constant /
                static_cast<double>(context.cluster.num_nodes);
  q.success_target = context.model.success_target;
  if (context.cluster.has_bursts()) {
    q.burst_hit_fraction = 1.0;
  }
  return OperatorTotalRuntime(makespan, q);
}

}  // namespace

Result<SchemePlan> ApplyScheme(SchemeKind kind, const plan::Plan& plan,
                               const FtCostContext& context,
                               const EnumerationOptions& options) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(context.Validate());
  SchemePlan out;
  out.kind = kind;
  out.plan = plan;
  FtCostContext ctx = context;
  switch (kind) {
    case SchemeKind::kAllMat: {
      out.recovery = RecoveryMode::kFineGrained;
      out.config = MaterializationConfig::AllMat(plan);
      break;
    }
    case SchemeKind::kNoMatLineage: {
      out.recovery = RecoveryMode::kFineGrained;
      out.config = MaterializationConfig::NoMat(plan);
      break;
    }
    case SchemeKind::kNoMatRestart: {
      out.recovery = RecoveryMode::kFullRestart;
      out.config = MaterializationConfig::NoMat(plan);
      // Full restart is priced as one query-level retry unit, matching the
      // simulator's full-restart retry unit; the shared fine-grained
      // estimate below would price the single-machine dominant path
      // instead and underestimate badly on large clusters.
      XDBFT_ASSIGN_OR_RETURN(
          out.estimated_cost,
          EstimateFullRestartCost(out.plan, out.config, ctx));
      return out;
    }
    case SchemeKind::kWriteAheadLineage: {
      out.recovery = RecoveryMode::kWalReplay;
      out.config = MaterializationConfig::NoMat(plan);
      // Cost under the WAL recovery discipline regardless of whether the
      // caller's model has it switched on: the scheme IS the discipline.
      ctx.model.wal_enabled = true;
      break;
    }
    case SchemeKind::kCostBased: {
      return ApplyCostBasedScheme({plan}, context, options);
    }
  }
  FtCostModel model(ctx);
  XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate est,
                         model.Estimate(out.plan, out.config));
  out.estimated_cost = est.dominant_cost;
  return out;
}

Result<SchemePlan> ApplyCostBasedScheme(
    const std::vector<plan::Plan>& candidates, const FtCostContext& context,
    const EnumerationOptions& options) {
  FtPlanEnumerator enumerator(context, options);
  XDBFT_ASSIGN_OR_RETURN(FtPlanChoice choice,
                         enumerator.FindBest(candidates));
  SchemePlan out;
  out.kind = SchemeKind::kCostBased;
  out.recovery = CostBasedRecovery(context.model);
  // Return the caller's plan, not the enumerator's working copy: the
  // pruning rules' kNeverMaterialize marks are an internal search detail
  // and would confuse downstream re-analysis (e.g. marginal reports).
  out.plan = candidates[choice.plan_index];
  out.plan_index = choice.plan_index;
  out.config = std::move(choice.config);
  out.estimated_cost = choice.estimated_cost;
  out.stats = enumerator.stats();
  return out;
}

Result<SchemeComparison> CompareSchemes(const plan::Plan& plan,
                                        const FtCostContext& context,
                                        const EnumerationOptions& options) {
  SchemeComparison out;
  double best = std::numeric_limits<double>::infinity();
  for (SchemeKind kind : kAllSchemeKinds) {
    XDBFT_ASSIGN_OR_RETURN(SchemePlan sp,
                           ApplyScheme(kind, plan, context, options));
    // Strictly-better wins; on ties the cost-based scheme is preferred
    // (it is never worse than the fixed schemes under the model).
    if (sp.estimated_cost < best ||
        (kind == SchemeKind::kCostBased && sp.estimated_cost <= best)) {
      best = sp.estimated_cost;
      out.recommended = kind;
    }
    out.schemes.push_back(std::move(sp));
  }
  std::stable_sort(out.schemes.begin(), out.schemes.end(),
                   [](const SchemePlan& a, const SchemePlan& b) {
                     return a.estimated_cost < b.estimated_cost;
                   });
  return out;
}

}  // namespace xdbft::ft
