#include "cluster/workload.h"

#include <algorithm>

namespace xdbft::cluster {

Result<WorkloadOutcome> SimulateWorkload(
    const std::vector<WorkloadQuery>& workload, ft::SchemeKind scheme,
    const cost::ClusterStats& stats, const cost::CostModelParams& model,
    uint64_t trace_seed, const SimulationOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  XDBFT_RETURN_NOT_OK(stats.Validate());
  XDBFT_RETURN_NOT_OK(model.Validate());

  ft::FtCostContext context;
  context.cluster = stats;
  context.model = model;
  ClusterSimulator simulator(stats, MatchModel(model, options));
  ClusterTrace trace = ClusterTrace::Generate(stats, trace_seed);

  WorkloadOutcome out;
  out.scheme = scheme;
  double clock = 0.0;
  double overhead_sum = 0.0;
  int completed = 0;

  for (const auto& q : workload) {
    XDBFT_RETURN_NOT_OK(q.plan.Validate());
    // The scheme is instantiated per query: for the cost-based scheme
    // this re-runs findBestFTPlan (different queries get different
    // configurations); the fixed schemes always produce the same policy.
    XDBFT_ASSIGN_OR_RETURN(ft::SchemePlan sp,
                           ft::ApplyScheme(scheme, q.plan, context));
    XDBFT_ASSIGN_OR_RETURN(const double baseline,
                           simulator.BaselineRuntime(q.plan));
    WorkloadQueryOutcome qo;
    qo.label = q.label;
    qo.baseline_seconds = baseline;
    qo.start_seconds = std::max(clock, q.arrival_seconds);
    XDBFT_ASSIGN_OR_RETURN(
        SimulationResult r,
        simulator.Run(sp, trace, /*start_time=*/qo.start_seconds));
    qo.completed = r.completed;
    qo.runtime_seconds = r.runtime;
    qo.finish_seconds = qo.start_seconds + r.runtime;
    if (r.completed) {
      qo.overhead_percent = OverheadPercent(r.runtime, baseline);
      overhead_sum += qo.overhead_percent;
      ++completed;
    } else {
      ++out.aborted;
    }
    clock = qo.finish_seconds;
    out.makespan_seconds = std::max(out.makespan_seconds,
                                    qo.finish_seconds);
    out.queries.push_back(std::move(qo));
  }
  out.mean_overhead_percent =
      completed > 0 ? overhead_sum / completed : 0.0;
  return out;
}

Result<std::vector<WorkloadOutcome>> CompareSchemesOnWorkload(
    const std::vector<WorkloadQuery>& workload,
    const cost::ClusterStats& stats, const cost::CostModelParams& model,
    uint64_t trace_seed, const SimulationOptions& options) {
  std::vector<WorkloadOutcome> out;
  for (ft::SchemeKind scheme : ft::kAllSchemeKinds) {
    XDBFT_ASSIGN_OR_RETURN(
        WorkloadOutcome o,
        SimulateWorkload(workload, scheme, stats, model, trace_seed,
                         options));
    out.push_back(std::move(o));
  }
  return out;
}

plan::Plan MakePipelinedQuery(int depth, double runtime_scale,
                              const std::string& name) {
  plan::PlanBuilder b(name);
  plan::OpId prev = b.Scan("stream", 1e7, 64, 30.0 * runtime_scale);
  for (int i = 0; i < depth; ++i) {
    // Streaming stages: cheap per-stage compute, bulky intermediates —
    // tm > tr, so blocking materialization costs more than the work it
    // protects.
    prev = b.Unary(plan::OpType::kFilter, "stage" + std::to_string(i), prev,
                   10.0 * runtime_scale, 25.0 * runtime_scale);
  }
  b.Unary(plan::OpType::kHashAggregate, "sink", prev, 5.0 * runtime_scale,
          0.5);
  return std::move(b).Build();
}

std::vector<WorkloadQuery> MakePipelinedWorkload(int count, int depth,
                                                 double runtime_scale) {
  std::vector<WorkloadQuery> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    WorkloadQuery q;
    q.label = "pipelined" + std::to_string(i);
    q.plan = MakePipelinedQuery(depth, runtime_scale, q.label);
    q.arrival_seconds = 0.0;
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace xdbft::cluster
