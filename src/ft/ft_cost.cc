#include "ft/ft_cost.h"

namespace xdbft::ft {

double CollapsedOpTotalRuntime(double durable_t, const FailureParams& fparams,
                               const WalParams& wal,
                               double extra_cost_per_attempt) {
  return OperatorTotalRuntime(durable_t, fparams,
                              {wal.replay_factor, extra_cost_per_attempt});
}

std::vector<int> PlacementResult::groups() const {
  std::vector<int> out;
  out.reserve(ops.size());
  for (const PlacedOp& op : ops) out.push_back(op.group);
  return out;
}

PlacementResult ComputePlacement(const CollapsedPlan& cp,
                                 const PlacementParams& pparams,
                                 const FailureParams& fparams,
                                 const WalParams& wal) {
  PlacementResult out;
  ComputePlacement(cp, pparams, fparams, wal, &out);
  return out;
}

void ComputePlacement(const CollapsedPlan& cp, const PlacementParams& pparams,
                      const FailureParams& fparams, const WalParams& wal,
                      PlacementResult* out) {
  const size_t n = cp.num_ops();
  // Stale entries need no reset: group 0 below overwrites every op.
  out->ops.resize(n);
  const int num_groups = pparams.num_groups > 0 ? pparams.num_groups : 1;
  // CollapsedIds are assigned in ascending topological order, so every
  // input of op(id) has an id < id and is already placed when we get here.
  for (size_t id = 0; id < n; ++id) {
    const CollapsedOp& op = cp.op(static_cast<CollapsedId>(id));
    const double t = op.total_cost();
    PlacedOp& best = out->ops[id];
    for (int g = 0; g < num_groups; ++g) {
      double remote = 0.0;     // materialized bytes read across groups
      double co_placed = 0.0;  // materialized bytes sharing fate with us
      for (CollapsedId input : op.inputs) {
        const double tm = cp.op(input).materialize_cost;
        if (out->ops[static_cast<size_t>(input)].group == g) {
          co_placed += tm;
        } else {
          remote += tm;
        }
      }
      const double durable_t = wal.DurableRuntime(
          t + pparams.remote_read_penalty * remote, op.lineage_volume);
      const double refetch = pparams.burst_failure_share * co_placed;
      const double total =
          CollapsedOpTotalRuntime(durable_t, fparams, wal, refetch);
      if (g == 0 || total < best.total) {
        best = PlacedOp{g, durable_t, refetch, total};
      }
    }
  }
}

double FtCostModel::OperatorCost(const CollapsedOp& c) const {
  const WalParams wal = context_.MakeWalParams();
  return CollapsedOpTotalRuntime(
      wal.DurableRuntime(c.total_cost(), c.lineage_volume),
      context_.MakeFailureParams(), wal);
}

PlacementResult FtCostModel::CostPass(const CollapsedPlan& cp) const {
  return ComputePlacement(cp, context_.MakePlacementParams(),
                          context_.MakeFailureParams(),
                          context_.MakeWalParams());
}

double FtCostModel::PathCost(const CollapsedPlan& cp,
                             const CollapsedPath& path) const {
  return CostPass(cp).PathCost(path);
}

Result<FtPlanEstimate> FtCostModel::Estimate(const CollapsedPlan& cp) const {
  XDBFT_RETURN_NOT_OK(context_.Validate());
  const PlacementParams pparams = context_.MakePlacementParams();
  const PlacementResult pass =
      ComputePlacement(cp, pparams, context_.MakeFailureParams(),
                       context_.MakeWalParams());
  FtPlanEstimate est;
  if (pparams.active()) est.placement_groups = pass.groups();
  est.paths_evaluated = cp.ForEachPath([&](const CollapsedPath& path) {
    const double cost = pass.PathCost(path);
    if (cost > est.dominant_cost) {
      est.dominant_cost = cost;
      est.dominant_path = path;
    }
    return true;
  });
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
