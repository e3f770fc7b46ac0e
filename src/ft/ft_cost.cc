#include "ft/ft_cost.h"

namespace xdbft::ft {

double CollapsedOpTotalRuntime(double durable_t, const FailureParams& fparams,
                               const WalParams& wal,
                               double extra_cost_per_attempt) {
  return OperatorTotalRuntime(durable_t, fparams,
                              {wal.replay_factor, extra_cost_per_attempt});
}

CostPassResult ComputeCostPass(const CollapsedPlan& cp,
                               const FailureParams& fparams,
                               const WalParams& wal) {
  CostPassResult out;
  ComputeCostPass(cp, fparams, wal, &out);
  return out;
}

void ComputeCostPass(const CollapsedPlan& cp, const FailureParams& fparams,
                     const WalParams& wal, CostPassResult* out) {
  const size_t n = cp.num_ops();
  out->ops.resize(n);
  const double share = fparams.burst_failure_share();
  for (size_t id = 0; id < n; ++id) {
    const CollapsedOp& op = cp.op(static_cast<CollapsedId>(id));
    double inputs_tm = 0.0;
    for (CollapsedId input : op.inputs) {
      inputs_tm += cp.op(input).materialize_cost;
    }
    const double durable_t =
        wal.DurableRuntime(op.total_cost(), op.lineage_volume);
    const double refetch = share * inputs_tm;
    out->ops[id] = CostPassOp{
        durable_t, refetch,
        CollapsedOpTotalRuntime(durable_t, fparams, wal, refetch)};
  }
}

double FtCostModel::OperatorCost(const CollapsedOp& c) const {
  const WalParams wal = context_.MakeWalParams();
  return CollapsedOpTotalRuntime(
      wal.DurableRuntime(c.total_cost(), c.lineage_volume),
      context_.MakeFailureParams(), wal);
}

CostPassResult FtCostModel::CostPass(const CollapsedPlan& cp) const {
  return ComputeCostPass(cp, context_.MakeFailureParams(),
                         context_.MakeWalParams());
}

double FtCostModel::PathCost(const CollapsedPlan& cp,
                             const CollapsedPath& path) const {
  return CostPass(cp).PathCost(path);
}

Result<FtPlanEstimate> FtCostModel::Estimate(const CollapsedPlan& cp) const {
  XDBFT_RETURN_NOT_OK(context_.Validate());
  const CostPassResult pass = CostPass(cp);
  FtPlanEstimate est;
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
