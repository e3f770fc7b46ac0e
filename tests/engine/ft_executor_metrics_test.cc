// Integration test of the observability layer against executor ground
// truth: a ScriptedInjector injects a known number of failures into a real
// Q5 execution, and the result's recovery accounting and the trace must
// match exactly — under an all-materialized configuration every injected
// failure costs exactly one recovery re-execution (the killed attempt's
// retry; no other output can be lost).
#include <gtest/gtest.h>

#include <vector>

#include "engine/ft_executor.h"
#include "obs/json.h"
#include "obs/trace.h"

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
    auto pd = DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

// First two partition-parallel stages, partitions 0 and 1.
std::vector<std::pair<int, int>> PickVictims(const StagePlan& plan) {
  std::vector<std::pair<int, int>> victims;
  for (int s = 0; s < plan.num_stages() && victims.size() < 2; ++s) {
    if (!plan.stage(s).global) {
      victims.emplace_back(s, static_cast<int>(victims.size()));
    }
  }
  return victims;
}

TEST(FtExecutorMetricsTest, InjectedFailuresMatchRecordedRecoveries) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const auto config =
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton());
  const auto victims = PickVictims(plan);
  ASSERT_EQ(victims.size(), 2u);

  ScriptedInjector injector(victims);
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto result = executor.Execute(config, &injector);
  ASSERT_TRUE(result.ok()) << result.status();

  // Ground truth: each victim fails once.
  EXPECT_EQ(result->failures_injected, 2);
  // All-mat: a failure can only cost the retry of the killed attempt.
  EXPECT_EQ(result->recovery_executions, result->failures_injected);
  int minimal = 0;
  for (int s = 0; s < plan.num_stages(); ++s) {
    minimal += plan.stage(s).global ? 1 : f.pd.num_nodes;
  }
  EXPECT_EQ(result->task_executions, minimal + result->recovery_executions);

  // Materialized-vs-recomputed accounting.
  EXPECT_GT(result->rows_materialized, 0u);
  EXPECT_GT(result->bytes_materialized, 0u);
  EXPECT_GT(result->rows_recomputed, 0u);
  ASSERT_EQ(result->stage_seconds.size(),
            static_cast<size_t>(plan.num_stages()));
}

TEST(FtExecutorMetricsTest, TraceRecordsFailuresAndRecoverySpans) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  const auto config =
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton());
  const auto victims = PickVictims(plan);

  ScriptedInjector injector(victims);
  obs::TraceRecorder trace;
  FaultTolerantExecutor executor(&plan, &f.pd);
  executor.set_trace(&trace);
  auto result = executor.Execute(config, &injector);
  ASSERT_TRUE(result.ok()) << result.status();

  auto doc = obs::ParseJson(trace.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int failures = 0, recoveries = 0, tasks = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* cat = e.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string_value == "failure") ++failures;
    if (cat->string_value == "recovery") ++recoveries;
    if (cat->string_value == "task") ++tasks;
  }
  EXPECT_EQ(failures, result->failures_injected);
  EXPECT_EQ(recoveries, result->recovery_executions);
  // "task" spans are successful first attempts; a victim's first attempt
  // was killed (no span), so the victims are missing from this count.
  int minimal = 0;
  for (int s = 0; s < plan.num_stages(); ++s) {
    minimal += plan.stage(s).global ? 1 : f.pd.num_nodes;
  }
  EXPECT_EQ(tasks, minimal - result->failures_injected);
}

TEST(FtExecutorMetricsTest, FailureFreeRunHasNoRecoveryAccounting) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  const auto config =
      ft::MaterializationConfig::NoMat(plan.ToPlanSkeleton());
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto result = executor.Execute(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->failures_injected, 0);
  EXPECT_EQ(result->recovery_executions, 0);
  EXPECT_EQ(result->rows_recomputed, 0u);
  EXPECT_EQ(result->bytes_recomputed, 0u);
}

}  // namespace
}  // namespace xdbft::engine
