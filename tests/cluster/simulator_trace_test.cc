// The simulator's discrete-event timeline exported as Chrome trace spans
// on virtual time (1 simulated second = 1000 trace microseconds): killed
// attempts and failure markers must agree with the SimulationResult, and
// the exported document must parse as trace-event JSON.
#include <gtest/gtest.h>

#include <string>

#include "cluster/simulator.h"
#include "obs/json.h"

namespace xdbft::cluster {
namespace {

using ft::MaterializationConfig;
using ft::RecoveryMode;
using plan::OpId;
using plan::OpType;
using plan::PlanBuilder;

plan::Plan ChainPlan(double op_seconds, double mat_seconds, int length) {
  PlanBuilder b("chain");
  OpId prev = b.Scan("R", 1e6, 64, op_seconds);
  b.plan().mutable_node(prev).materialize_cost = mat_seconds;
  for (int i = 1; i < length; ++i) {
    prev = b.Unary(OpType::kFilter, "op" + std::to_string(i), prev,
                   op_seconds, mat_seconds);
  }
  return std::move(b).Build();
}

struct TraceCounts {
  int subplans = 0;
  int killed = 0;
  int failures = 0;
  int waits = 0;
};

TraceCounts CountByCategory(const obs::JsonValue& doc) {
  TraceCounts counts;
  const obs::JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return counts;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* cat = e.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string_value == "subplan") ++counts.subplans;
    if (cat->string_value == "killed") ++counts.killed;
    if (cat->string_value == "failure") ++counts.failures;
    if (cat->string_value == "wait") ++counts.waits;
  }
  return counts;
}

TEST(SimulatorTraceTest, FineGrainedTimelineMatchesResult) {
  const plan::Plan p = ChainPlan(30.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 20.0, 2.0);
  obs::TraceRecorder trace;
  SimulationOptions options;
  options.trace = &trace;
  const ClusterSimulator sim(stats, options);
  ClusterTrace failures = ClusterTrace::Generate(stats, 11);

  auto r = sim.Run(p, MaterializationConfig::AllMat(p),
                   RecoveryMode::kFineGrained, failures);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->completed);

  auto doc = obs::ParseJson(trace.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const TraceCounts counts = CountByCategory(*doc);
  // Every sub-plan (3 collapsed ops x 2 nodes) eventually completes.
  EXPECT_EQ(counts.subplans, 3 * 2);
  // One killed span and one failure marker per restart; every restart
  // waits out the MTTR.
  EXPECT_EQ(counts.killed, r->restarts);
  EXPECT_EQ(counts.failures, r->restarts);
  EXPECT_EQ(counts.waits, r->restarts);
  EXPECT_GT(r->restarts, 0) << "MTBF=20s over ~93s of work per node should "
                               "inject at least one failure";
}

TEST(SimulatorTraceTest, VirtualTimestampsScaleWithRuntime) {
  const plan::Plan p = ChainPlan(10.0, 1.0, 2);
  const cost::ClusterStats stats = cost::MakeCluster(1, 1e18, 1.0);
  obs::TraceRecorder trace;
  SimulationOptions options;
  options.trace = &trace;
  const ClusterSimulator sim(stats, options);
  ClusterTrace failures = ClusterTrace::Generate(stats, 1);

  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, failures);
  ASSERT_TRUE(r.ok()) << r.status();
  auto doc = obs::ParseJson(trace.ToJson());
  ASSERT_TRUE(doc.ok());
  // 1 simulated second = 1000 trace us: the last span must end at
  // runtime * 1000.
  double max_end = 0.0;
  for (const obs::JsonValue& e : doc->Find("traceEvents")->array) {
    if (e.Find("ph")->string_value != "X") continue;
    max_end = std::max(max_end, e.Find("ts")->number_value +
                                    e.Find("dur")->number_value);
  }
  EXPECT_DOUBLE_EQ(max_end, r->runtime * 1000.0);
}

TEST(SimulatorTraceTest, FullRestartEmitsQueryAttempts) {
  const plan::Plan p = ChainPlan(50.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 40.0, 2.0);
  obs::TraceRecorder trace;
  SimulationOptions options;
  options.trace = &trace;
  const ClusterSimulator sim(stats, options);
  ClusterTrace failures = ClusterTrace::Generate(stats, 5);

  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFullRestart, failures);
  ASSERT_TRUE(r.ok()) << r.status();
  auto doc = obs::ParseJson(trace.ToJson());
  ASSERT_TRUE(doc.ok());
  int query_spans = 0, killed = 0;
  for (const obs::JsonValue& e : doc->Find("traceEvents")->array) {
    const obs::JsonValue* cat = e.Find("cat");
    if (cat == nullptr) continue;
    if (cat->string_value == "query") ++query_spans;
    if (cat->string_value == "killed") ++killed;
  }
  EXPECT_EQ(killed, r->restarts);
  EXPECT_EQ(query_spans, r->completed ? 1 : 0);
}

TEST(SimulatorAttemptLogTest, FineGrainedLedgerMatchesResult) {
  const plan::Plan p = ChainPlan(30.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 20.0, 2.0);
  obs::AttemptTimeline timeline;
  SimulationOptions options;
  options.attempt_log = &timeline;
  const ClusterSimulator sim(stats, options);
  ClusterTrace failures = ClusterTrace::Generate(stats, 11);

  auto r = sim.Run(p, MaterializationConfig::AllMat(p),
                   RecoveryMode::kFineGrained, failures);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->completed);
  ASSERT_GT(r->restarts, 0);
  int killed = 0, completed = 0;
  for (const auto& rec : timeline.records) {
    EXPECT_GE(rec.finish_seconds, rec.dispatch_seconds);
    if (rec.killed) {
      ++killed;
    } else {
      ++completed;
    }
  }
  // One killed attempt per restart; every sub-plan (3 collapsed ops x 2
  // nodes) eventually completes exactly once.
  EXPECT_EQ(killed, r->restarts);
  EXPECT_EQ(completed, 3 * 2);
}

TEST(SimulatorAttemptLogTest, FullRestartLedgerUsesVirtualTime) {
  const plan::Plan p = ChainPlan(50.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 40.0, 2.0);
  obs::AttemptTimeline timeline;
  SimulationOptions options;
  options.attempt_log = &timeline;
  const ClusterSimulator sim(stats, options);
  ClusterTrace failures = ClusterTrace::Generate(stats, 5);

  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFullRestart, failures);
  ASSERT_TRUE(r.ok()) << r.status();
  int killed = 0, completed = 0;
  for (const auto& rec : timeline.records) {
    EXPECT_EQ(rec.label, "query");
    EXPECT_EQ(rec.node, -1);
    if (rec.killed) {
      ++killed;
    } else {
      ++completed;
    }
  }
  EXPECT_EQ(killed, r->restarts);
  EXPECT_EQ(completed, r->completed ? 1 : 0);
  if (r->completed) {
    // The ledger is on virtual simulated time: the last attempt finishes
    // exactly at the reported runtime.
    EXPECT_DOUBLE_EQ(timeline.records.back().finish_seconds, r->runtime);
  }
}

}  // namespace
}  // namespace xdbft::cluster
