#include "ft/ft_cost.h"

namespace xdbft::ft {

double CollapsedOpTotalRuntime(double t, double lineage_volume,
                               const FailureParams& fparams,
                               const WalParams& wal,
                               double extra_cost_per_attempt) {
  // The disabled path must not touch t at all (adding 0.0 could flip
  // -0.0 and, more importantly, signals intent): bit-identical to the
  // pre-WAL model.
  if (!wal.enabled) {
    return OperatorTotalRuntime(t, fparams, {1.0, extra_cost_per_attempt});
  }
  const double durable = t + wal.write_cost * lineage_volume;
  return OperatorTotalRuntime(durable, fparams,
                              {wal.replay_factor, extra_cost_per_attempt});
}

PlacementResult ComputePlacement(const CollapsedPlan& cp,
                                 const PlacementParams& pparams,
                                 const FailureParams& fparams,
                                 const WalParams& wal) {
  const size_t n = cp.num_ops();
  PlacementResult out;
  out.groups.assign(n, 0);
  out.placed_cost.assign(n, 0.0);
  out.refetch_cost.assign(n, 0.0);
  const int num_groups = pparams.num_groups > 0 ? pparams.num_groups : 1;
  // CollapsedIds are assigned in ascending topological order, so every
  // input of op(id) has an id < id and is already placed when we get here.
  for (size_t id = 0; id < n; ++id) {
    const CollapsedOp& op = cp.op(static_cast<CollapsedId>(id));
    const double t = op.total_cost();
    int best_group = 0;
    double best_total = 0.0;
    double best_placed = t;
    double best_refetch = 0.0;
    for (int g = 0; g < num_groups; ++g) {
      double remote = 0.0;     // materialized bytes read across groups
      double co_placed = 0.0;  // materialized bytes sharing fate with us
      for (CollapsedId input : op.inputs) {
        const double tm = cp.op(input).materialize_cost;
        if (out.groups[static_cast<size_t>(input)] == g) {
          co_placed += tm;
        } else {
          remote += tm;
        }
      }
      const double placed_t = t + pparams.remote_read_penalty * remote;
      const double refetch = pparams.burst_failure_share * co_placed;
      const double total = CollapsedOpTotalRuntime(
          placed_t, op.lineage_volume, fparams, wal, refetch);
      if (g == 0 || total < best_total) {
        best_group = g;
        best_total = total;
        best_placed = placed_t;
        best_refetch = refetch;
      }
    }
    out.groups[id] = best_group;
    out.placed_cost[id] = best_placed;
    out.refetch_cost[id] = best_refetch;
  }
  return out;
}

double FtCostModel::OperatorCost(const CollapsedOp& c) const {
  return CollapsedOpTotalRuntime(c.total_cost(), c.lineage_volume,
                                 context_.MakeFailureParams(),
                                 context_.MakeWalParams());
}

double FtCostModel::PathCost(const CollapsedPlan& cp,
                             const CollapsedPath& path) const {
  const FailureParams params = context_.MakeFailureParams();
  const PlacementParams pparams = context_.MakePlacementParams();
  const WalParams wal = context_.MakeWalParams();
  if (!pparams.active()) {
    double total = 0.0;
    for (CollapsedId id : path) {
      total += CollapsedOpTotalRuntime(cp.op(id).total_cost(),
                                       cp.op(id).lineage_volume, params, wal);
    }
    return total;
  }
  const PlacementResult placement =
      ComputePlacement(cp, pparams, params, wal);
  double total = 0.0;
  for (CollapsedId id : path) {
    const size_t i = static_cast<size_t>(id);
    total += CollapsedOpTotalRuntime(placement.placed_cost[i],
                                     cp.op(id).lineage_volume, params, wal,
                                     placement.refetch_cost[i]);
  }
  return total;
}

Result<FtPlanEstimate> FtCostModel::Estimate(const CollapsedPlan& cp) const {
  XDBFT_RETURN_NOT_OK(context_.Validate());
  const FailureParams params = context_.MakeFailureParams();
  const PlacementParams pparams = context_.MakePlacementParams();
  const WalParams wal = context_.MakeWalParams();
  FtPlanEstimate est;
  if (!pparams.active()) {
    est.paths_evaluated = cp.ForEachPath([&](const CollapsedPath& path) {
      double cost = 0.0;
      for (CollapsedId id : path) {
        cost += CollapsedOpTotalRuntime(cp.op(id).total_cost(),
                                        cp.op(id).lineage_volume, params,
                                        wal);
      }
      if (cost > est.dominant_cost) {
        est.dominant_cost = cost;
        est.dominant_path = path;
      }
      return true;
    });
  } else {
    const PlacementResult placement =
        ComputePlacement(cp, pparams, params, wal);
    est.placement_groups = placement.groups;
    est.paths_evaluated = cp.ForEachPath([&](const CollapsedPath& path) {
      double cost = 0.0;
      for (CollapsedId id : path) {
        const size_t i = static_cast<size_t>(id);
        cost += CollapsedOpTotalRuntime(placement.placed_cost[i],
                                        cp.op(id).lineage_volume, params,
                                        wal, placement.refetch_cost[i]);
      }
      if (cost > est.dominant_cost) {
        est.dominant_cost = cost;
        est.dominant_path = path;
      }
      return true;
    });
  }
  if (est.paths_evaluated == 0) {
    return Status::InvalidArgument("collapsed plan has no execution paths");
  }
  return est;
}

Result<FtPlanEstimate> FtCostModel::Estimate(
    const plan::Plan& plan, const MaterializationConfig& config) const {
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, config, context_.model.pipe_constant));
  return Estimate(cp);
}

}  // namespace xdbft::ft
