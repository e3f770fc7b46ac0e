// Integration test of the observability layer against executor ground
// truth: a ScriptedInjector injects a known number of failures into a real
// Q5 execution, and the result's recovery accounting and the trace drawn
// from its attempt timeline must match exactly — under an
// all-materialized configuration every injected failure costs exactly one
// recovery re-execution (the killed attempt's retry; no other output can
// be lost).
#include <gtest/gtest.h>

#include <vector>

#include "engine/ft_executor.h"
#include "obs/attempt_log.h"
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
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto result = executor.Execute(config, &injector);
  ASSERT_TRUE(result.ok()) << result.status();
  obs::TraceRecorder trace;
  obs::AddToTrace(result->timeline, &trace, /*pid=*/0, "ft_executor", 1e6);

  auto doc = obs::ParseJson(trace.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int failures = 0, recoveries = 0, tasks = 0, killed = 0;
  size_t next_record = 0;
  for (const obs::JsonValue& e : events->array) {
    const std::string& cat = e.Find("cat")->string_value;
    if (cat == "failure") ++failures;
    if (cat == "recovery") ++recoveries;
    if (cat == "attempt") ++tasks;
    if (cat == "killed") ++killed;
    if (cat != "attempt" && cat != "recovery" && cat != "killed") continue;
    // The attempt spans are the timeline's records one to one, on the
    // record's partition lane (global stages on lane n, the coordinator).
    ASSERT_LT(next_record, result->timeline.records.size());
    const obs::AttemptRecord& rec = result->timeline.records[next_record++];
    EXPECT_EQ(e.Find("name")->string_value, rec.label);
    EXPECT_EQ(cat == "killed", rec.killed);
    EXPECT_EQ(e.FindPath("args.stage")->number_value, rec.stage);
    EXPECT_EQ(e.FindPath("args.attempt")->number_value, rec.attempt);
    EXPECT_EQ(e.Find("tid")->number_value,
              rec.node < 0 ? f.pd.num_nodes : rec.node);
    EXPECT_EQ(e.Find("ts")->number_value, rec.dispatch_seconds * 1e6);
  }
  EXPECT_EQ(next_record, result->timeline.records.size());
  EXPECT_EQ(failures, result->failures_injected);
  EXPECT_EQ(killed, result->failures_injected);
  EXPECT_EQ(recoveries, result->recovery_executions);
  // "attempt" spans are successful first attempts; a victim's first
  // attempt was killed, so the victims are missing from this count.
  int minimal = 0;
  for (int s = 0; s < plan.num_stages(); ++s) {
    minimal += plan.stage(s).global ? 1 : f.pd.num_nodes;
  }
  EXPECT_EQ(tasks, minimal - result->failures_injected);
  EXPECT_EQ(tasks + recoveries + killed, result->task_executions);
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
