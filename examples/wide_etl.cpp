// Wide ETL pipeline: a 30-stage transformation DAG has 2^30 possible
// materialization configurations — far beyond exhaustive enumeration.
// This example uses the greedy hill climber to pick checkpoints and
// explains the choice with per-operator marginals.
//
//   $ ./wide_etl
#include <cstdio>
#include <iostream>

#include "api/xdbft.h"

using namespace xdbft;

int main() {
  // A nightly ETL pipeline: ingest, 30 transformation stages of varying
  // cost, one long ML-scoring UDF, final load. Only some stages are cheap
  // to checkpoint (small intermediate outputs).
  plan::PlanBuilder b("nightly-etl");
  auto prev = b.Scan("raw_events", 5e9, 120, /*tr=*/400.0);
  b.Constrain(prev, plan::MatConstraint::kNeverMaterialize);
  for (int i = 0; i < 30; ++i) {
    const bool cheap = (i % 6 == 2);  // aggregations shrink the data
    prev = b.Unary(plan::OpType::kMapUdf, "stage" + std::to_string(i),
                   prev, /*tr=*/60.0 + (i % 5) * 15.0,
                   /*tm=*/cheap ? 1.5 : 90.0);
  }
  prev = b.Unary(plan::OpType::kMapUdf, "ml-scoring", prev, /*tr=*/1800.0,
                 /*tm=*/40.0);
  b.Unary(plan::OpType::kHashAggregate, "load", prev, /*tr=*/60.0,
          /*tm=*/2.0);
  plan::Plan plan = std::move(b).Build();

  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(/*nodes=*/20, cost::kSecondsPerHour,
                                  /*mttr=*/5.0);
  std::printf("Pipeline: %zu operators, %zu free -> 2^%zu configurations\n",
              plan.num_nodes(), ft::EnumerableOperators(plan).size(),
              ft::EnumerableOperators(plan).size());
  std::printf("%s\n", ctx.cluster.ToString().c_str());

  // Exhaustive enumeration would refuse this plan; greedy handles it.
  auto greedy = ft::GreedyMaterialization(plan, ctx);
  if (!greedy.ok()) {
    std::fprintf(stderr, "greedy failed: %s\n",
                 greedy.status().ToString().c_str());
    return 1;
  }
  ft::FtCostModel model(ctx);
  const double no_mat_cost =
      model.Estimate(plan, ft::MaterializationConfig::NoMat(plan))
          ->dominant_cost;
  const double all_mat_cost =
      model.Estimate(plan, ft::MaterializationConfig::AllMat(plan))
          ->dominant_cost;
  std::printf(
      "\nEstimated runtime under failures:\n"
      "  no-mat   %10.1fs\n"
      "  all-mat  %10.1fs\n"
      "  greedy   %10.1fs  (%zu materialized in %d steps: %s)\n",
      no_mat_cost, all_mat_cost, greedy->estimated_cost,
      greedy->config.NumMaterialized(), greedy->steps,
      greedy->config.ToString().c_str());

  // Explain which checkpoints carry the savings.
  auto marginals = ft::AnalyzeMarginals(plan, greedy->config, ctx);
  if (marginals.ok()) {
    std::printf("\nTop checkpoints by marginal benefit:\n");
    auto ops = marginals->operators;
    std::sort(ops.begin(), ops.end(),
              [](const ft::OperatorMarginal& a,
                 const ft::OperatorMarginal& b) {
                return a.benefit() > b.benefit();
              });
    for (size_t i = 0; i < ops.size() && i < 5; ++i) {
      std::printf("  %-12s m=%d  saves %8.1fs if kept as configured\n",
                  ops[i].label.c_str(), ops[i].materialized ? 1 : 0,
                  ops[i].benefit());
    }
  }
  return 0;
}
