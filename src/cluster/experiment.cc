#include "cluster/experiment.h"

namespace xdbft::cluster {

const SchemeOutcome& ExperimentResult::outcome(ft::SchemeKind kind) const {
  for (const auto& s : schemes) {
    if (s.kind == kind) return s;
  }
  static const SchemeOutcome kEmpty{};
  return kEmpty;
}

Result<ExperimentResult> RunSchemeComparison(
    const plan::Plan& plan, const cost::ClusterStats& stats,
    const cost::CostModelParams& model, int num_traces, uint64_t seed,
    const SimulationOptions& sim_options) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(stats.Validate());
  XDBFT_RETURN_NOT_OK(model.Validate());

  ft::FtCostContext context;
  context.cluster = stats;
  context.model = model;

  ClusterSimulator simulator(stats, MatchModel(model, sim_options));
  XDBFT_ASSIGN_OR_RETURN(const double baseline,
                         simulator.BaselineRuntime(plan));

  ExperimentResult result;
  result.baseline_runtime = baseline;

  for (ft::SchemeKind kind : ft::kAllSchemeKinds) {
    XDBFT_ASSIGN_OR_RETURN(ft::SchemePlan sp,
                           ft::ApplyScheme(kind, plan, context));
    // Fresh trace objects per scheme, derived from the same seeds, so
    // every scheme sees exactly the same failure arrivals (§5.1).
    std::vector<ClusterTrace> traces =
        GenerateTraceSet(stats, num_traces, seed);
    XDBFT_ASSIGN_OR_RETURN(SimulationResult sim_result,
                           simulator.RunMany(sp, traces));
    SchemeOutcome outcome;
    outcome.kind = kind;
    outcome.completed = sim_result.completed;
    outcome.mean_runtime = sim_result.runtime;
    outcome.overhead_percent =
        sim_result.completed ? OverheadPercent(sim_result.runtime, baseline)
                             : 0.0;
    outcome.estimated_runtime = sp.estimated_cost;
    outcome.num_materialized = sp.config.NumMaterialized();
    outcome.restarts = sim_result.restarts;
    result.schemes.push_back(outcome);
  }
  return result;
}

}  // namespace xdbft::cluster
