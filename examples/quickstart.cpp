// Quickstart: build an execution plan with per-operator statistics, ask
// the cost-based fault-tolerance advisor which intermediates to
// materialize, and compare against the classic all-mat / no-mat schemes.
//
//   $ ./quickstart
#include <cstdio>
#include <iostream>

#include "api/xdbft.h"

using namespace xdbft;

int main() {
  // A small analytical query: two scans, a join, an aggregation, a sort.
  // Costs are in seconds for partition-parallel execution (tr = runtime,
  // tm = cost of materializing the operator's output to fault-tolerant
  // storage).
  plan::PlanBuilder b("sales-report");
  const auto sales = b.Scan("sales", /*rows=*/2e9, /*width=*/48,
                            /*runtime_cost=*/300.0);
  const auto users = b.Scan("users", /*rows=*/5e7, /*width=*/80,
                            /*runtime_cost=*/15.0);
  const auto join = b.Binary(plan::OpType::kHashJoin, "join(user_id)",
                             sales, users, /*tr=*/240.0, /*tm=*/90.0);
  const auto agg = b.Unary(plan::OpType::kHashAggregate, "agg(region)",
                           join, /*tr=*/120.0, /*tm=*/2.0);
  b.Unary(plan::OpType::kSort, "top-100", agg, /*tr=*/5.0, /*tm=*/0.5);
  // Base tables are persistent; scans restart from them on failure.
  b.Constrain(sales, plan::MatConstraint::kNeverMaterialize);
  b.Constrain(users, plan::MatConstraint::kNeverMaterialize);
  plan::Plan plan = std::move(b).Build();

  std::printf("%s\n", plan.Explain().c_str());

  // A 50-node commodity/spot cluster where a node fails every ~2 hours.
  ft::FtCostContext context;
  context.cluster = cost::MakeCluster(/*num_nodes=*/50,
                                      2 * cost::kSecondsPerHour,
                                      /*mttr=*/5.0);

  auto chosen = ft::ApplyCostBasedScheme({plan}, context);
  if (!chosen.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 chosen.status().ToString().c_str());
    return 1;
  }
  std::cout << ft::Explain(*chosen, context) << "\n";

  auto comparison = ft::CompareSchemes(plan, context);
  if (comparison.ok()) {
    std::printf("Scheme comparison (estimated runtime under failures):\n");
    for (const ft::SchemePlan& sp : comparison->schemes) {
      std::printf("  %-18s %10.1fs  (%zu materialized)\n",
                  ft::SchemeKindName(sp.kind), sp.estimated_cost,
                  sp.config.NumMaterialized());
    }
    std::printf("Recommended: %s\n",
                ft::SchemeKindName(comparison->recommended));
  }
  return 0;
}
