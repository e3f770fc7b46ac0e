#include "ft/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace xdbft::ft {

std::string MarginalAnalysis::ToString() const {
  std::ostringstream os;
  os << StrFormat("Materialization marginals (configured cost %.2fs):\n",
                  configured_cost);
  for (const auto& m : operators) {
    os << StrFormat(
        "  [%2d] %-28s m=%d  toggled cost %.2fs  (%s %.2fs)\n", m.op,
        m.label.c_str(), m.materialized ? 1 : 0, m.cost_toggled,
        m.benefit() >= 0 ? "saves" : "LOSES", std::fabs(m.benefit()));
  }
  return os.str();
}

std::string AccuracyReport::ToString() const {
  std::ostringstream os;
  os << "Predicted failure behavior per collapsed operator:\n";
  os << StrFormat("  %-28s %10s %8s %8s %10s %10s\n", "operator", "t(c)",
                  "gamma", "a(c)", "w(c)", "T(c)");
  for (const auto& p : operators) {
    os << StrFormat("  %-28s %10.2f %8.4f %8.3f %10.2f %10.2f\n",
                    p.label.c_str(), p.t, p.gamma, p.attempts, p.wasted,
                    p.total);
  }
  os << StrFormat(
      "  predicted: runtime %.2fs (dominant path), %.3f extra attempts\n",
      predicted_runtime, predicted_attempts);
  if (observed.empty()) {
    os << "  observed: (no instrumented run)\n";
    return os.str();
  }
  for (const auto& o : observed) {
    os << StrFormat(
        "  observed [%s]: %d failures, %d recovery re-executions of %d "
        "task attempts, runtime %.3fs\n",
        o.source.c_str(), o.failures, o.recovery_executions,
        o.task_executions, o.runtime_seconds);
  }
  return os.str();
}

Result<AccuracyReport> BuildAccuracyReport(const plan::Plan& plan,
                                           const MaterializationConfig& config,
                                           const FtCostContext& context) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan));
  XDBFT_RETURN_NOT_OK(context.Validate());
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, config, context.model.pipe_constant));
  const FailureParams params = context.MakeFailureParams();
  const double mtbf = params.effective_mtbf_cost();
  // The rows read the estimate's own cost pass: T(c) is the pass's, and
  // gamma, a(c) and w(c) are those T(c) was priced with (durable t at the
  // burst-adjusted MTBF).
  FtCostModel model(context);
  const CostPassResult pass = model.CostPass(cp);

  AccuracyReport out;
  out.operators.reserve(cp.ops().size());
  for (const CollapsedOp& c : cp.ops()) {
    const CostPassOp& op = pass.ops[static_cast<size_t>(c.id)];
    PredictedOperator p;
    p.label = StrFormat("c%d:%s", c.id, plan.node(c.anchor).label.c_str());
    p.t = op.durable_t;
    p.gamma = SuccessProbability(p.t, mtbf);
    p.attempts = ExpectedAttempts(p.t, mtbf, params.success_target);
    p.wasted = WastedTime(p.t, params);
    p.total = op.total;
    out.predicted_attempts += p.attempts;
    out.operators.push_back(std::move(p));
  }
  // The dominant path's TPt, from the same pass (what Estimate returns).
  cp.ForEachPath([&](const CollapsedPath& path) {
    out.predicted_runtime =
        std::max(out.predicted_runtime, pass.PathCost(path));
    return true;
  });
  return out;
}

Result<MarginalAnalysis> AnalyzeMarginals(const plan::Plan& plan,
                                          const MaterializationConfig& config,
                                          const FtCostContext& context) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan));
  FtCostModel model(context);
  XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate base, model.Estimate(plan, config));

  MarginalAnalysis out;
  out.configured_cost = base.dominant_cost;
  for (plan::OpId id : EnumerableOperators(plan)) {
    MaterializationConfig toggled = config;
    toggled.set_materialized(id, !config.materialized(id));
    XDBFT_ASSIGN_OR_RETURN(FtPlanEstimate est,
                           model.Estimate(plan, toggled));
    OperatorMarginal m;
    m.op = id;
    m.label = plan.node(id).label;
    m.materialized = config.materialized(id);
    m.cost_as_configured = base.dominant_cost;
    m.cost_toggled = est.dominant_cost;
    out.operators.push_back(std::move(m));
  }
  return out;
}

std::string Explain(const SchemePlan& chosen, const FtCostContext& context) {
  std::ostringstream os;
  os << "Fault-tolerance advisor report\n";
  os << "  cluster: " << context.cluster.ToString() << "\n";
  os << StrFormat("  model: CONST_pipe=%.2f, S=%.2f, %s wasted-time\n",
                  context.model.pipe_constant, context.model.success_target,
                  context.model.exact_wasted_time ? "exact" : "t/2");
  os << "  scheme: " << SchemeKindName(chosen.kind) << "\n";
  os << "  recovery: "
     << (chosen.recovery == RecoveryMode::kFineGrained
             ? "fine-grained (restart failed sub-plans)"
             : chosen.recovery == RecoveryMode::kWalReplay
                   ? "write-ahead lineage (replay logged frontier)"
                   : "full query restart")
     << "\n";
  os << "  materialized operators: " << chosen.config.ToString() << " ("
     << chosen.config.NumMaterialized() << " of "
     << chosen.plan.num_nodes() << ")\n";
  os << StrFormat("  estimated runtime under failures: %s\n",
                  HumanDuration(chosen.estimated_cost).c_str());
  os << "  plan:\n";
  for (const auto& n : chosen.plan.nodes()) {
    os << StrFormat("    [%2d]%s %-28s tr=%-9.3f tm=%-9.3f\n", n.id,
                    chosen.config.materialized(n.id) ? "*" : " ",
                    n.label.c_str(), n.runtime_cost, n.materialize_cost);
  }
  os << "  (* = output materialized to fault-tolerant storage)\n";
  auto marginals = AnalyzeMarginals(chosen.plan, chosen.config, context);
  if (marginals.ok()) {
    os << marginals->ToString();
  }
  return os.str();
}

}  // namespace xdbft::ft
