// The simulator's attempt ledger, and the Chrome trace obs::AddToTrace
// draws from it on virtual time (1 simulated second = 1000 trace
// microseconds): killed attempts and failure markers must agree with the
// SimulationResult, every attempt span must be one ledger record, and the
// drawn document must parse as trace-event JSON.
#include <gtest/gtest.h>

#include <string>

#include "cluster/simulator.h"
#include "obs/json.h"
#include "obs/trace.h"

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

// 1 simulated second = 1000 trace microseconds, as xdbft_advisor draws it.
constexpr double kUsPerSimSecond = 1000.0;

// Runs `p` under `recovery` with an attempt ledger attached and draws the
// ledger; returns the result and fills `timeline` and `doc`.
SimulationResult RunTraced(const plan::Plan& p,
                           const MaterializationConfig& config,
                           RecoveryMode recovery,
                           const cost::ClusterStats& stats, uint64_t seed,
                           obs::AttemptTimeline* timeline,
                           obs::JsonValue* doc) {
  SimulationOptions options;
  options.attempt_log = timeline;
  ClusterTrace failures = ClusterTrace::Generate(stats, seed);
  auto r = ClusterSimulator(stats, options).Run(p, config, recovery, failures);
  EXPECT_TRUE(r.ok()) << r.status();
  obs::TraceRecorder trace;
  obs::AddToTrace(*timeline, &trace, /*pid=*/1, "simulator", kUsPerSimSecond);
  auto parsed = obs::ParseJson(trace.ToJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (parsed.ok()) *doc = std::move(*parsed);
  return r.ok() ? *r : SimulationResult{};
}

int CountCategory(const obs::JsonValue& doc, const std::string& category) {
  int n = 0;
  for (const obs::JsonValue& e : doc.Find("traceEvents")->array) {
    if (e.Find("cat")->string_value == category) ++n;
  }
  return n;
}

// The trace's attempt, recovery and killed spans, in emission order, are
// the timeline's records one to one.
void ExpectSpansMatchRecords(const obs::JsonValue& doc,
                             const obs::AttemptTimeline& timeline) {
  size_t i = 0;
  for (const obs::JsonValue& e : doc.Find("traceEvents")->array) {
    const std::string& cat = e.Find("cat")->string_value;
    if (e.Find("ph")->string_value != "X" ||
        (cat != "attempt" && cat != "recovery" && cat != "killed")) {
      continue;
    }
    ASSERT_LT(i, timeline.records.size());
    const obs::AttemptRecord& rec = timeline.records[i++];
    EXPECT_EQ(e.Find("name")->string_value, rec.label);
    EXPECT_EQ(cat, rec.killed          ? "killed"
                   : rec.attempt > 0 ? "recovery"
                                     : "attempt");
    EXPECT_EQ(e.FindPath("args.attempt")->number_value, rec.attempt);
    EXPECT_EQ(e.FindPath("args.node")->number_value, rec.node);
    EXPECT_EQ(e.Find("ts")->number_value,
              rec.dispatch_seconds * kUsPerSimSecond);
  }
  EXPECT_EQ(i, timeline.records.size());
}

TEST(SimulatorTraceTest, FineGrainedTimelineMatchesResult) {
  const plan::Plan p = ChainPlan(30.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 20.0, 2.0);
  obs::AttemptTimeline timeline;
  obs::JsonValue doc;
  const SimulationResult r =
      RunTraced(p, MaterializationConfig::AllMat(p),
                RecoveryMode::kFineGrained, stats, 11, &timeline, &doc);
  ASSERT_TRUE(r.completed);
  ExpectSpansMatchRecords(doc, timeline);
  // Every sub-plan (3 collapsed ops x 2 nodes) eventually completes.
  EXPECT_EQ(CountCategory(doc, "attempt") + CountCategory(doc, "recovery"),
            3 * 2);
  // One killed span and one failure marker per restart; every restart
  // waits out the MTTR before its retry.
  EXPECT_EQ(CountCategory(doc, "killed"), r.restarts);
  EXPECT_EQ(CountCategory(doc, "failure"), r.restarts);
  EXPECT_EQ(CountCategory(doc, "wait"), r.restarts);
  EXPECT_GT(r.restarts, 0) << "MTBF=20s over ~93s of work per node should "
                              "inject at least one failure";
}

TEST(SimulatorTraceTest, VirtualTimestampsScaleWithRuntime) {
  const plan::Plan p = ChainPlan(10.0, 1.0, 2);
  const cost::ClusterStats stats = cost::MakeCluster(1, 1e18, 1.0);
  obs::AttemptTimeline timeline;
  obs::JsonValue doc;
  const SimulationResult r =
      RunTraced(p, MaterializationConfig::NoMat(p),
                RecoveryMode::kFineGrained, stats, 1, &timeline, &doc);
  ExpectSpansMatchRecords(doc, timeline);
  // 1 simulated second = 1000 trace us: the last span must end at
  // runtime * 1000.
  double max_end = 0.0;
  for (const obs::JsonValue& e : doc.Find("traceEvents")->array) {
    if (e.Find("ph")->string_value != "X") continue;
    max_end = std::max(max_end, e.Find("ts")->number_value +
                                    e.Find("dur")->number_value);
  }
  EXPECT_DOUBLE_EQ(max_end, r.runtime * kUsPerSimSecond);
}

TEST(SimulatorTraceTest, FullRestartEmitsQueryAttempts) {
  const plan::Plan p = ChainPlan(50.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 40.0, 2.0);
  obs::AttemptTimeline timeline;
  obs::JsonValue doc;
  const SimulationResult r =
      RunTraced(p, MaterializationConfig::NoMat(p),
                RecoveryMode::kFullRestart, stats, 5, &timeline, &doc);
  ExpectSpansMatchRecords(doc, timeline);
  EXPECT_EQ(CountCategory(doc, "killed"), r.restarts);
  EXPECT_EQ(CountCategory(doc, "attempt") + CountCategory(doc, "recovery"),
            r.completed ? 1 : 0);
  // Whole-query attempts have no node: they sit on the coordinator lane,
  // the only lane of this process.
  for (const obs::JsonValue& e : doc.Find("traceEvents")->array) {
    EXPECT_EQ(e.Find("tid")->number_value, 0);
  }
}

TEST(SimulatorTraceTest, LabelsNameTheCollapsedOpAndItsAnchor) {
  const plan::Plan p = ChainPlan(30.0, 1.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(2, 1e18, 1.0);
  obs::AttemptTimeline timeline;
  obs::JsonValue doc;
  RunTraced(p, MaterializationConfig::AllMat(p), RecoveryMode::kFineGrained,
            stats, 1, &timeline, &doc);
  ASSERT_EQ(timeline.records.size(), 3u * 2u);
  EXPECT_EQ(timeline.records[0].label, "c0:" + p.node(0).label);
  EXPECT_EQ(timeline.records[5].label, "c2:" + p.node(2).label);
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
