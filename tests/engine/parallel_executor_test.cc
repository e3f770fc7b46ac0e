// Concurrency tests for the parallel FaultTolerantExecutor: bit-identical
// results and failure accounting at every thread count (including stateful
// random injectors), concurrent failure injection under TSan, and the
// recursion-depth bomb the old recursive recovery implementation could not
// survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "datagen/tpch_gen.h"
#include "engine/ft_executor.h"
#include "engine/stage_plan.h"
#include "ft/mat_config.h"

namespace xdbft::engine {
namespace {

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.005;
    opts.seed = 99;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 4);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

bool TablesEqual(const exec::Table& a, const exec::Table& b) {
  const std::vector<exec::Row> ra = a.ToRows();
  const std::vector<exec::Row> rb = b.ToRows();
  return std::equal(ra.begin(), ra.end(), rb.begin(), rb.end(),
                    exec::RowEq{});
}

// Every deterministic field of two executions must agree; only wall-clock
// timing (wall_seconds, stage_seconds, seconds_lost) may differ.
void ExpectSameOutcome(const FtExecutionResult& a,
                       const FtExecutionResult& b) {
  EXPECT_TRUE(TablesEqual(a.result, b.result));
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.recovery_executions, b.recovery_executions);
  EXPECT_EQ(a.task_executions, b.task_executions);
  EXPECT_EQ(a.rows_materialized, b.rows_materialized);
  EXPECT_EQ(a.bytes_materialized, b.bytes_materialized);
  EXPECT_EQ(a.rows_recomputed, b.rows_recomputed);
  EXPECT_EQ(a.bytes_recomputed, b.bytes_recomputed);
  EXPECT_EQ(a.rows_lost, b.rows_lost);
  EXPECT_EQ(a.bytes_lost, b.bytes_lost);
}

TEST(ParallelExecutorTest, ScriptedInjectionDeterministicAcrossThreads) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  for (const auto& config :
       {ft::MaterializationConfig::NoMat(skeleton),
        ft::MaterializationConfig::AllMat(skeleton)}) {
    FaultTolerantExecutor baseline_exec(&plan, &f.pd);
    baseline_exec.set_num_threads(1);
    ScriptedInjector baseline_injector({{4, 1}, {5, 2}, {5, 3}},
                                       /*times=*/2);
    auto baseline = baseline_exec.Execute(config, &baseline_injector);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    EXPECT_EQ(baseline->failures_injected, 6);

    for (int threads : {2, 8}) {
      FaultTolerantExecutor executor(&plan, &f.pd);
      executor.set_num_threads(threads);
      ScriptedInjector injector({{4, 1}, {5, 2}, {5, 3}}, /*times=*/2);
      auto r = executor.Execute(config, &injector);
      ASSERT_TRUE(r.ok()) << "threads=" << threads << ": " << r.status();
      ExpectSameOutcome(*baseline, *r);
    }
  }
}

TEST(ParallelExecutorTest, StatefulRandomInjectorDeterministicAcrossThreads) {
  // RandomInjector keeps an unsynchronized RNG; determinism relies on the
  // executor making every injector call from the coordinator in the same
  // order at any thread count.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const auto config =
      ft::MaterializationConfig::NoMat(plan.ToPlanSkeleton());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    FaultTolerantExecutor baseline_exec(&plan, &f.pd);
    baseline_exec.set_num_threads(1);
    RandomInjector baseline_injector(0.10, seed);
    auto baseline = baseline_exec.Execute(config, &baseline_injector);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    for (int threads : {2, 8}) {
      FaultTolerantExecutor executor(&plan, &f.pd);
      executor.set_num_threads(threads);
      RandomInjector injector(0.10, seed);
      auto r = executor.Execute(config, &injector);
      ASSERT_TRUE(r.ok())
          << "seed=" << seed << " threads=" << threads << ": " << r.status();
      ExpectSameOutcome(*baseline, *r);
    }
  }
}

TEST(ParallelExecutorTest, ShufflePlanDeterministicAcrossThreads) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeCustomerRevenueStagePlan(f.pd);
  const auto config =
      ft::MaterializationConfig::NoMat(plan.ToPlanSkeleton());
  FaultTolerantExecutor baseline_exec(&plan, &f.pd);
  baseline_exec.set_num_threads(1);
  ScriptedInjector baseline_injector({{1, 0}, {2, 3}});
  auto baseline = baseline_exec.Execute(config, &baseline_injector);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_GT(baseline->failures_injected, 0);

  for (int threads : {4, 8}) {
    FaultTolerantExecutor executor(&plan, &f.pd);
    executor.set_num_threads(threads);
    ScriptedInjector injector({{1, 0}, {2, 3}});
    auto r = executor.Execute(config, &injector);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": " << r.status();
    ExpectSameOutcome(*baseline, *r);
  }
}

TEST(ParallelExecutorTest, Q2CSharedCteRecoveryFeedsBothOuterQueries) {
  // Q2C's CTE (stage 0) feeds two partitioned outer joins (stages 1 and 3)
  // under no-mat.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ2CStagePlan(f.pd);
  ASSERT_EQ(plan.stage(1).inputs[0].stage, 0);
  ASSERT_EQ(plan.stage(3).inputs[0].stage, 0);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor clean_exec(&plan, &f.pd);
  auto clean = clean_exec.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok()) << clean.status();
  const auto config = ft::MaterializationConfig::NoMat(skeleton);

  // The CTE task on partition 2 dies before any consumer ran: its retry is
  // the only extra work, and both consumers read the retried output.
  {
    FaultTolerantExecutor executor(&plan, &f.pd);
    ScriptedInjector injector({{0, 2}});
    auto r = executor.Execute(config, &injector);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(TablesEqual(r->result, clean->result));
    EXPECT_EQ(r->recovery_executions, 1);
    EXPECT_EQ(r->rows_lost, 0u);
  }

  // Node 2 dies while the outer joins run (wave 2): outer 1's attempt is
  // killed, and the CTE output and outer 2's output held there are lost.
  // Recovery = outer 1's retry + the CTE recompute + outer 2's recompute,
  // and both consumers start again only after the recomputed CTE exists.
  std::optional<FtExecutionResult> baseline;
  for (const int threads : {1, 2, 8}) {
    FaultTolerantExecutor executor(&plan, &f.pd);
    executor.set_num_threads(threads);
    ScriptedInjector injector({{1, 2}});
    auto r = executor.Execute(config, &injector);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": " << r.status();
    EXPECT_TRUE(TablesEqual(r->result, clean->result)) << threads;
    EXPECT_EQ(r->failures_injected, 1);
    EXPECT_EQ(r->recovery_executions, 3);
    EXPECT_GT(r->rows_lost, 0u);
    double cte_redo_finish = -1.0;
    std::vector<double> consumer_redo_starts;
    for (const obs::AttemptRecord& rec : r->timeline.records) {
      if (rec.node != 2 || rec.attempt != 1) continue;
      if (rec.stage == 0) cte_redo_finish = rec.finish_seconds;
      if (rec.stage == 1 || rec.stage == 3) {
        consumer_redo_starts.push_back(rec.dispatch_seconds);
      }
    }
    ASSERT_GE(cte_redo_finish, 0.0);
    ASSERT_EQ(consumer_redo_starts.size(), 2u);
    for (const double start : consumer_redo_starts) {
      EXPECT_GE(start, cte_redo_finish);
    }
    if (baseline.has_value()) {
      ExpectSameOutcome(*baseline, *r);
    } else {
      baseline = std::move(*r);
    }
  }
}

TEST(ParallelExecutorTest, ConcurrentFailureInjectionMatchesCleanRun) {
  // The TSan payload: partition tasks run on 4 pool workers while the
  // coordinator injects random failures and invalidates outputs between
  // waves. Every run must still produce the clean-run table.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor clean_exec(&plan, &f.pd);
  clean_exec.set_num_threads(4);
  auto clean = clean_exec.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok()) << clean.status();

  int total_failures = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    FaultTolerantExecutor executor(&plan, &f.pd);
    executor.set_num_threads(4);
    RandomInjector injector(0.15, seed);
    auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                              &injector);
    ASSERT_TRUE(r.ok()) << "seed=" << seed << ": " << r.status();
    EXPECT_TRUE(TablesEqual(r->result, clean->result)) << "seed=" << seed;
    total_failures += r->failures_injected;
  }
  EXPECT_GT(total_failures, 0);  // the injection rate actually fired
}

TEST(ParallelExecutorTest, SurvivesRecursionDepthBomb) {
  // 20000 consecutive failures of one task: the old recursive `ensure`
  // recovery overflowed the stack well below this depth; the iterative
  // wave scheduler just burns 20000 attempts.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  executor.set_num_threads(1);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());

  constexpr int kFailures = 20000;
  ScriptedInjector injector({{0, 0}}, /*times=*/kFailures);
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector, /*max_attempts=*/kFailures + 10);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->failures_injected, kFailures);
  EXPECT_TRUE(TablesEqual(r->result, clean->result));
}

TEST(ParallelExecutorTest, WastedWorkChargedOnlyForDestroyedOutputs) {
  // A late-stage victim under no-mat destroys the completed upstream
  // outputs its node held: rows/bytes/seconds_lost count exactly that.
  // Under all-mat every output survives in fault-tolerant storage, so a
  // failure wastes nothing (the killed attempt itself never ran).
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  executor.set_num_threads(2);

  ScriptedInjector no_mat_injector({{5, 0}});
  auto no_mat = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                                 &no_mat_injector);
  ASSERT_TRUE(no_mat.ok()) << no_mat.status();
  EXPECT_EQ(no_mat->failures_injected, 1);
  EXPECT_GT(no_mat->rows_lost, 0u);
  EXPECT_GT(no_mat->bytes_lost, 0u);
  EXPECT_GT(no_mat->seconds_lost, 0.0);

  ScriptedInjector all_mat_injector({{5, 0}});
  auto all_mat = executor.Execute(ft::MaterializationConfig::AllMat(skeleton),
                                  &all_mat_injector);
  ASSERT_TRUE(all_mat.ok()) << all_mat.status();
  EXPECT_EQ(all_mat->failures_injected, 1);
  EXPECT_EQ(all_mat->rows_lost, 0u);
  EXPECT_EQ(all_mat->bytes_lost, 0u);
  EXPECT_DOUBLE_EQ(all_mat->seconds_lost, 0.0);
}

}  // namespace
}  // namespace xdbft::engine
