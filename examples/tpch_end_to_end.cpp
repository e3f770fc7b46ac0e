// End-to-end demo of the full pipeline on real data:
//   1. generate a TPC-H database (scale factor 0.05),
//   2. distribute it over a simulated 4-node cluster (paper §5.1 layout),
//   3. execute Q5's stage plan for real, partition-parallel and without
//      failures, measuring per-stage costs,
//   4. calibrate an execution plan from the measured statistics
//      (the paper's "perfect cost estimates"),
//   5. extrapolate to deployment scale and ask the advisor for the optimal
//      materialization configuration,
//   6. validate the choice by simulating execution under injected
//      failures.
//
//   $ ./tpch_end_to_end
#include <cstdio>
#include <iostream>

#include "api/xdbft.h"
#include "engine/cost_calibrator.h"

using namespace xdbft;

int main() {
  // 1. Generate data.
  datagen::TpchGenOptions gen;
  gen.scale_factor = 0.05;
  std::printf("Generating TPC-H data at SF=%.2f ...\n", gen.scale_factor);
  auto db = datagen::GenerateTpch(gen);
  if (!db.ok()) {
    std::fprintf(stderr, "datagen: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("  lineitem: %zu rows, orders: %zu rows\n",
              db->lineitem.num_rows(), db->orders.num_rows());

  // 2. Distribute (LINEITEM/ORDERS co-partitioned on orderkey, dimensions
  //    replicated via RREF).
  auto pd = engine::DistributeTpch(*db, /*num_nodes=*/4);
  if (!pd.ok()) {
    std::fprintf(stderr, "distribute: %s\n",
                 pd.status().ToString().c_str());
    return 1;
  }

  // 3. Execute Q5 for real: a failure-free run of its stage plan, with
  //    partition tasks on every hardware thread.
  const engine::StagePlan q5 = engine::MakeQ5StagePlan(*pd);
  engine::FaultTolerantExecutor executor(&q5, &*pd);
  executor.set_num_threads(0);
  auto execution = executor.Execute(
      ft::MaterializationConfig::AllMat(q5.ToPlanSkeleton()));
  if (!execution.ok()) {
    std::fprintf(stderr, "Q5: %s\n",
                 execution.status().ToString().c_str());
    return 1;
  }
  std::printf("\nQ5 executed in %.3fs; revenue per nation:\n",
              execution->wall_seconds);
  for (const auto& row : execution->result.ToRows()) {
    std::printf("  %-12s %14.2f\n", row[0].AsString().c_str(),
                row[1].AsDouble());
  }
  std::printf("\nMeasured stages (task seconds summed over partitions):\n");
  for (int s = 0; s < q5.num_stages(); ++s) {
    const size_t i = static_cast<size_t>(s);
    std::printf("  %-16s %8.4fs  %9zu rows\n", q5.stage(s).label.c_str(),
                execution->stage_seconds[i], execution->stage_output_rows[i]);
  }

  // 4. Calibrate a plan from the measured statistics.
  auto calibrated = engine::BuildCalibratedPlan(
      q5, *execution, cost::ExternalIscsiStorage(), "q5-measured");
  if (!calibrated.ok()) {
    std::fprintf(stderr, "calibrate: %s\n",
                 calibrated.status().ToString().c_str());
    return 1;
  }

  // 5. Extrapolate to the production deployment (SF=100 on the same
  //    number of nodes: runtimes scale linearly in SF) and choose the
  //    fault-tolerant plan for a cluster with MTBF = 1 hour.
  const double scale = 100.0 / gen.scale_factor;
  plan::Plan production =
      engine::ScaleCalibratedPlan(*calibrated, scale,
                                  /*materialization_factor=*/1.0);
  // Materialization costs derive from the scaled output cardinalities.
  engine::RecostMaterialization(&production, cost::ExternalIscsiStorage());
  const auto stats = cost::MakeCluster(4, cost::kSecondsPerHour, 2.0);
  ft::FtCostContext context;
  context.cluster = stats;
  auto chosen = ft::ApplyCostBasedScheme({production}, context);
  if (!chosen.ok()) {
    std::fprintf(stderr, "advisor: %s\n",
                 chosen.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", ft::Explain(*chosen, context).c_str());

  // 6. Validate under injected failures.
  cluster::ClusterSimulator simulator(stats);
  auto traces = cluster::GenerateTraceSet(stats, 10, /*seed=*/1);
  auto simulated = simulator.RunMany(*chosen, traces);
  auto baseline = simulator.BaselineRuntime(production);
  if (simulated.ok() && baseline.ok()) {
    std::printf(
        "Simulated under failures (10 traces): %.1fs mean "
        "(baseline %.1fs, overhead %.1f%%, %d sub-plan restarts)\n",
        simulated->runtime, *baseline,
        cluster::OverheadPercent(simulated->runtime, *baseline),
        simulated->restarts);
  }
  return 0;
}
