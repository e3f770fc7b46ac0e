// Real fault-tolerant execution: runs TPC-H Q5 on generated data with
// randomly injected mid-query failures and actual recovery (recomputation
// from the last materialized stages), for each materialization policy.
// Demonstrates that recovery is transparent — every run returns the exact
// same result — while the recovery *work* depends on what was
// materialized.
//
//   $ ./real_recovery
#include <cstdio>

#include "api/xdbft.h"
#include "engine/ft_executor.h"

using namespace xdbft;

int main() {
  datagen::TpchGenOptions gen;
  gen.scale_factor = 0.05;
  std::printf("Generating TPC-H data (SF=%.2f) ...\n", gen.scale_factor);
  auto db = datagen::GenerateTpch(gen);
  if (!db.ok()) return 1;
  auto pd = engine::DistributeTpch(*db, 4);
  if (!pd.ok()) return 1;

  const engine::StagePlan plan = engine::MakeQ5StagePlan(*pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  engine::FaultTolerantExecutor executor(&plan, &*pd);

  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  if (!clean.ok()) {
    std::fprintf(stderr, "error: %s\n", clean.status().ToString().c_str());
    return 1;
  }
  std::printf("Failure-free Q5 result (%zu nations):\n",
              clean->result.num_rows());
  for (const auto& row : clean->result.ToRows()) {
    std::printf("  %-12s %14.2f\n", row[0].AsString().c_str(),
                row[1].AsDouble());
  }

  struct Policy {
    const char* name;
    ft::MaterializationConfig config;
  };
  // The cost-based pick for a flaky cluster materializes the cheap
  // mid-plan stages; derive it from the skeleton with uniform stand-in
  // costs (stage runtimes are data-dependent; here the policy is what
  // matters).
  const Policy policies[] = {
      {"all-mat", ft::MaterializationConfig::AllMat(skeleton)},
      {"no-mat", ft::MaterializationConfig::NoMat(skeleton)},
      {"subset {Join3}",
       [&] {
         auto c = ft::MaterializationConfig::NoMat(skeleton);
         c.set_materialized(3, true);  // Join3(RNC,O)
         return c;
       }()},
  };

  std::printf(
      "\nInjecting random failures (12%% of task attempts), 5 runs per "
      "policy:\n");
  std::printf("%-16s %10s %10s %12s %8s\n", "policy", "failures",
              "recovery", "tasks", "correct");
  for (const auto& policy : policies) {
    int failures = 0, recovery = 0, tasks = 0;
    bool correct = true;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      engine::RandomInjector injector(0.12, seed);
      auto r = executor.Execute(policy.config, &injector);
      if (!r.ok()) {
        std::fprintf(stderr, "  %s: %s\n", policy.name,
                     r.status().ToString().c_str());
        correct = false;
        break;
      }
      failures += r->failures_injected;
      recovery += r->recovery_executions;
      tasks += r->task_executions;
      if (r->result.num_rows() != clean->result.num_rows()) {
        correct = false;
      } else {
        for (size_t i = 0; i < r->result.num_rows(); ++i) {
          if (!exec::RowEq{}(r->result.GetRow(i), clean->result.GetRow(i))) {
            correct = false;
          }
        }
      }
    }
    std::printf("%-16s %10d %10d %12d %8s\n", policy.name, failures,
                recovery, tasks, correct ? "yes" : "NO");
  }
  std::printf(
      "\nEvery policy recovers to the identical result; materialization\n"
      "only changes how much work recovery re-does (the 'recovery'\n"
      "column) — the trade-off the paper's cost model optimizes.\n");
  return 0;
}
