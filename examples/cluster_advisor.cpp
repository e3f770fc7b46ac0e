// Cluster advisor: a decision matrix showing, for each TPC-H benchmark
// query and a range of cluster setups, which fault-tolerance scheme the
// cost model recommends and how many intermediates the cost-based scheme
// would materialize. Useful for capacity planning: it makes the paper's
// "sweet spot" argument tangible.
//
//   $ ./cluster_advisor
#include <algorithm>
#include <cstdio>

#include "api/xdbft.h"
#include "common/string_util.h"

using namespace xdbft;

int main() {
  struct Cluster {
    const char* label;
    cost::ClusterStats stats;
  };
  const Cluster clusters[] = {
      {"n=100 MTBF=1h", cost::MakeCluster(100, cost::kSecondsPerHour, 2.0)},
      {"n=100 MTBF=1wk",
       cost::MakeCluster(100, cost::kSecondsPerWeek, 2.0)},
      {"n=10  MTBF=1h", cost::MakeCluster(10, cost::kSecondsPerHour, 2.0)},
      {"n=10  MTBF=1d", cost::MakeCluster(10, cost::kSecondsPerDay, 2.0)},
      {"n=10  MTBF=1wk", cost::MakeCluster(10, cost::kSecondsPerWeek, 2.0)},
  };

  std::printf(
      "Recommended scheme per (query, cluster); 'cb/k' = cost-based with k"
      "\nmaterialized operators. TPC-H SF=100.\n\n");
  std::printf("%-16s", "cluster");
  for (tpch::TpchQuery q : tpch::AllQueries()) {
    std::printf(" %14s", tpch::TpchQueryName(q));
  }
  std::printf("\n%s\n", std::string(16 + 15 * 5, '-').c_str());

  for (const auto& c : clusters) {
    std::printf("%-16s", c.label);
    for (tpch::TpchQuery q : tpch::AllQueries()) {
      tpch::TpchPlanConfig cfg;
      cfg.scale_factor = 100.0;
      cfg.num_nodes = c.stats.num_nodes;
      auto plan = tpch::BuildQuery(q, cfg);
      if (!plan.ok()) {
        std::printf(" %14s", "err");
        continue;
      }
      cost::CostModelParams model;
      // Extension: make the attempts percentile cluster-size aware, so
      // the recommendation reflects n (see cost_params.h).
      model.scale_success_target_with_cluster = true;
      auto cmp = ft::CompareSchemes(*plan, ft::FtCostContext{c.stats, model});
      if (!cmp.ok()) {
        std::printf(" %14s", "err");
        continue;
      }
      const ft::SchemePlan& best = *std::find_if(
          cmp->schemes.begin(), cmp->schemes.end(),
          [](const ft::SchemePlan& sp) {
            return sp.kind == ft::SchemeKind::kCostBased;
          });
      // The cost-based pick equals one of the fixed schemes when it
      // materializes everything/nothing; report the closest label.
      const size_t m = best.config.NumMaterialized();
      const size_t total_free = ft::EnumerableOperators(*plan).size();
      std::string label;
      if (total_free == 0) {
        label = "n/a (bound)";
      } else if (m == plan->Sinks().size()) {
        label = "no-mat";
      } else if (m == total_free + plan->Sinks().size()) {
        label = "all-mat";
      } else {
        label = StrFormat("cb/%zu", m - plan->Sinks().size());
      }
      std::printf(" %14s", label.c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading guide: the sweet spot depends on the runtime-to-MTBF\n"
      "ratio AND the materialization cost. On 100 nodes the queries finish\n"
      "in seconds, so even at MTBF=1h checkpointing to the shared store\n"
      "costs more than the occasional partition restart; on 10 nodes at\n"
      "MTBF=1h the same queries run ~15 minutes and the cost-based scheme\n"
      "checkpoints the cheap intermediates. Reliable clusters always\n"
      "degenerate to no-mat.\n");
  return 0;
}
