// Failure-timeline demo: runs one query under a single failure trace with
// each recovery scheme and prints what happened — failures hit, sub-plan
// restarts, final runtime — making the schemes' behavior concrete.
//
//   $ ./failure_timeline [seed]
#include <cstdio>
#include <cstdlib>

#include "api/xdbft.h"

using namespace xdbft;

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  const auto stats =
      cost::MakeCluster(cfg.num_nodes, cost::kSecondsPerHour, 2.0);
  ft::FtCostContext context;
  context.cluster = stats;

  // The model's WAL costs, so the write-ahead lineage row is simulated
  // under the discipline it is priced with rather than degenerating to
  // fine-grained recovery.
  cluster::ClusterSimulator simulator(stats,
                                      cluster::MatchModel(context.model));
  const double baseline = *simulator.BaselineRuntime(*plan);
  std::printf("Q5 @ SF=100 on %s\n", stats.ToString().c_str());
  std::printf("Failure-free baseline: %.1fs; trace seed %llu\n\n", baseline,
              static_cast<unsigned long long>(seed));

  // Show the first few failures of the trace.
  {
    cluster::ClusterTrace trace = cluster::ClusterTrace::Generate(stats,
                                                                  seed);
    std::printf("First failures in the trace:\n");
    double t = 0.0;
    for (int i = 0; i < 6; ++i) {
      int node = -1;
      t = trace.NextFailureAfter(t, &node);
      if (t > baseline * 4) break;
      std::printf("  t=%8.1fs  node %d fails\n", t, node);
    }
    std::printf("\n");
  }

  std::printf("%-18s %12s %10s %10s %10s\n", "scheme", "runtime(s)",
              "overhead%", "restarts", "m-ops");
  for (ft::SchemeKind kind : ft::kAllSchemeKinds) {
    auto sp = ft::ApplyScheme(kind, *plan, context);
    if (!sp.ok()) continue;
    cluster::ClusterTrace trace = cluster::ClusterTrace::Generate(stats,
                                                                  seed);
    auto r = simulator.Run(*sp, trace);
    if (!r.ok()) continue;
    if (r->completed) {
      std::printf("%-18s %12.1f %10.1f %10d %10zu\n",
                  ft::SchemeKindName(kind), r->runtime,
                  cluster::OverheadPercent(r->runtime, baseline),
                  r->restarts, sp->config.NumMaterialized());
    } else {
      std::printf("%-18s %12s %10s %10d %10zu\n", ft::SchemeKindName(kind),
                  "ABORTED", "-", r->restarts,
                  sp->config.NumMaterialized());
    }
  }
  return 0;
}
