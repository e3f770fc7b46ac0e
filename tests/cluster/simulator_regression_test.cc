// Regression tests for simulator accounting bugs:
//  1. RunMany over a trace set where *every* run aborted reported
//     runtime 0.0 — an impossible workload looked like an instant
//     success. It now reports the time the aborted runs burned.
//  2. Full restart ignored options_.monitoring_interval: fine-grained
//     recovery paid the failure-detection delay (the failure time is
//     ceiled to the next monitoring tick before MTTR) while the
//     full-restart baseline restarted instantly, biasing every
//     fine-vs-full comparison against fine-grained recovery.
//  3. Fine-grained recovery ignored options_.max_restarts: a retry unit
//     could spin forever while full restart aborted after max_restarts,
//     so the two recovery schemes were compared under different abort
//     semantics. Fine-grained now aborts when any single retry unit
//     (collapsed op x node) hits the cap.
//  4. RunMany with a mixed trace set (some completed, some aborted)
//     dropped the aborted runs' burned time entirely; aborted_seconds is
//     now the mean over aborted traces and runtime stays completed-basis.
// Plus exact-clock pins of the write-ahead-lineage replay factor and of
// plain fine-grained recomputation on a scheduled failure.
#include "cluster/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ft/scheme.h"

namespace xdbft::cluster {
namespace {

using ft::MaterializationConfig;
using ft::RecoveryMode;
using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

Plan ChainPlan(double op_seconds = 10.0, double mat_seconds = 1.0,
               int length = 4) {
  PlanBuilder b("chain");
  OpId prev = b.Scan("R", 1e6, 64, op_seconds);
  b.plan().mutable_node(prev).materialize_cost = mat_seconds;
  for (int i = 1; i < length; ++i) {
    prev = b.Unary(OpType::kFilter, "op" + std::to_string(i), prev,
                   op_seconds, mat_seconds);
  }
  return std::move(b).Build();
}

TEST(SimulatorRegressionTest, AbortedRunReportsTimeSpent) {
  // A 4001s query on a cluster failing every ~60s never finishes; the
  // aborted result must carry the burned time, not pretend to be free.
  Plan p = ChainPlan(1000.0, 1.0, 4);
  cost::ClusterStats stats = cost::MakeCluster(10, 600.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 5;
  ClusterSimulator sim(stats, opts);
  ClusterTrace trace = ClusterTrace::Generate(stats, 3);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFullRestart, trace);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->completed);
  EXPECT_EQ(r->restarts, 5);
  EXPECT_EQ(r->aborted, 1);
  EXPECT_GT(r->runtime, 0.0);
  EXPECT_DOUBLE_EQ(r->aborted_seconds, r->runtime);
  EXPECT_NE(r->ToString().find("aborted=1"), std::string::npos);
}

TEST(SimulatorRegressionTest, AllAbortedRunManyReportsNonZeroRuntime) {
  Plan p = ChainPlan(1000.0, 1.0, 4);
  cost::ClusterStats stats = cost::MakeCluster(10, 600.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 5;
  ClusterSimulator sim(stats, opts);
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::NoMat(p);
  sp.recovery = RecoveryMode::kFullRestart;
  auto traces = GenerateTraceSet(stats, 8, 17);
  auto r = sim.RunMany(sp, traces);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->completed);  // the scenario: every trace aborts
  EXPECT_EQ(r->aborted, 8);
  // The old behavior averaged zero completed runtimes to 0.0.
  EXPECT_GT(r->runtime, 0.0);
  EXPECT_GT(r->runtime_p50, 0.0);
  EXPECT_GT(r->runtime_p95, 0.0);
  EXPECT_LE(r->runtime_p50, r->runtime_p95);
  // aborted_seconds is the mean time burned per aborted run; with every
  // trace aborted it coincides with the fallback runtime basis.
  EXPECT_NEAR(r->runtime, r->aborted_seconds, 1e-9 * r->aborted_seconds);
}

TEST(SimulatorRegressionTest, MixedAbortsStillAverageCompletedRuns) {
  // With some traces completing, runtime keeps its meaning (mean over the
  // completed runs) and the aborted ones are surfaced separately.
  Plan p = ChainPlan(100.0, 1.0, 4);  // 401s query
  cost::ClusterStats stats = cost::MakeCluster(4, 900.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 3;
  ClusterSimulator sim(stats, opts);
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::NoMat(p);
  sp.recovery = RecoveryMode::kFullRestart;
  auto traces = GenerateTraceSet(stats, 30, 11);
  auto r = sim.RunMany(sp, traces);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->aborted, 0);           // some abort...
  ASSERT_LT(r->aborted, 30);          // ...but not all
  EXPECT_FALSE(r->completed);
  EXPECT_GE(r->runtime, 401.0);       // mean of completed runs only
  EXPECT_GT(r->aborted_seconds, 0.0);

  // Differential check of the aggregation contract: fold the per-trace
  // results by hand and require exact agreement — the bug this guards
  // against made aborted runs' burned time vanish from the aggregate.
  auto traces2 = GenerateTraceSet(stats, 30, 11);
  std::vector<double> completed_runtimes;
  double aborted_sum = 0.0;
  int aborted_count = 0;
  for (auto& t : traces2) {
    auto one = sim.Run(sp, t);
    ASSERT_TRUE(one.ok());
    if (one->completed) {
      completed_runtimes.push_back(one->runtime);
    } else {
      aborted_sum += one->runtime;
      ++aborted_count;
    }
  }
  ASSERT_EQ(aborted_count, r->aborted);
  double mean = 0.0;
  for (double x : completed_runtimes) mean += x;
  mean /= static_cast<double>(completed_runtimes.size());
  EXPECT_NEAR(r->runtime, mean, 1e-9 * mean);
  EXPECT_NEAR(r->aborted_seconds,
              aborted_sum / static_cast<double>(aborted_count),
              1e-9 * aborted_sum);
}

TEST(SimulatorRegressionTest, FineGrainedRespectsMaxRestarts) {
  // A 1000s retry unit on nodes failing every ~100s essentially never
  // completes (P ~ e^-10 per attempt). Before the fix fine-grained
  // recovery retried unboundedly; now it aborts once a single unit has
  // burned max_restarts attempts, like full restart and the executor.
  Plan p = ChainPlan(1000.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(3, 100.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 10;
  ClusterSimulator sim(stats, opts);
  ClusterTrace trace = ClusterTrace::Generate(stats, 7);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->completed);
  EXPECT_EQ(r->aborted, 1);
  EXPECT_EQ(r->restarts, 10);  // the first unit hit the cap
  EXPECT_GT(r->runtime, 0.0);
  EXPECT_DOUBLE_EQ(r->aborted_seconds, r->runtime);
}

TEST(SimulatorRegressionTest, FineGrainedCapIsPerRetryUnit) {
  // The cap binds per retry unit, not across the whole query: with ops
  // short relative to MTBF, total restarts may exceed max_restarts while
  // every individual unit stays under it and the query completes.
  Plan p = ChainPlan(40.0, 1.0, 6);
  cost::ClusterStats stats = cost::MakeCluster(4, 120.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 12;
  ClusterSimulator sim(stats, opts);
  int total_restarts = 0;
  int completed = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    ClusterTrace trace = ClusterTrace::Generate(stats, seed);
    auto r = sim.Run(p, MaterializationConfig::AllMat(p),
                     RecoveryMode::kFineGrained, trace);
    ASSERT_TRUE(r.ok());
    if (r->completed) {
      ++completed;
      total_restarts += r->restarts;
    }
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(total_restarts, opts.max_restarts);  // cap is per unit
}

// Reference replay of full-restart semantics: a failure at time f is
// detected at the next monitoring tick (ceil to the interval), then MTTR
// passes before the query restarts from scratch.
double ReplayFullRestart(ClusterTrace& trace, double makespan,
                         double interval, double mttr) {
  double start = 0.0;
  while (true) {
    const double fail = trace.NextFailureAfter(start);
    if (fail >= start + makespan) return start + makespan;
    double detected = fail;
    if (interval > 0.0) {
      detected = std::ceil(fail / interval) * interval;
    }
    start = detected + mttr;
  }
}

TEST(SimulatorRegressionTest, FullRestartPaysDetectionDelay) {
  // The simulated runtime must match the tick-quantized replay exactly;
  // before the fix it matched the interval=0 replay instead (full restart
  // redeployed instantly while fine-grained recovery waited for the
  // coordinator's next poll). Note runtimes are not monotone in the
  // interval: a delayed restart lands on a different stretch of the
  // failure trace and may dodge a failure entirely.
  Plan p = ChainPlan(10.0, 1.0, 2);  // 21s no-mat query
  cost::ClusterStats stats = cost::MakeCluster(1, 15.0, 1.0);
  SimulationOptions monitored;
  monitored.monitoring_interval = 7.0;
  ClusterSimulator sim(stats, monitored);
  int delayed_runs = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    ClusterTrace t_sim = ClusterTrace::Generate(stats, seed);
    ClusterTrace t_monitored = ClusterTrace::Generate(stats, seed);
    ClusterTrace t_immediate = ClusterTrace::Generate(stats, seed);
    auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                     RecoveryMode::kFullRestart, t_sim);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->completed);
    const double expected = ReplayFullRestart(
        t_monitored, 21.0, monitored.monitoring_interval,
        stats.mttr_seconds);
    const double immediate =
        ReplayFullRestart(t_immediate, 21.0, 0.0, stats.mttr_seconds);
    EXPECT_DOUBLE_EQ(r->runtime, expected) << "seed=" << seed;
    if (expected != immediate) ++delayed_runs;
  }
  EXPECT_GT(delayed_runs, 0);  // the delay actually changed outcomes
}

TEST(SimulatorRegressionTest, BackToBackFailuresChargeOneDetectionWindow) {
  // Crafted trace: two failures land inside a single detection + repair
  // window (t=1 and t=3 with interval 2 and MTTR 10). They are ONE
  // outage: detection at the t=2 tick, repair until t=12, restart, done
  // at t=33. The stale t=3 failure — already in the past when the retry
  // starts — must not charge a second detection tick or MTTR.
  Plan p = ChainPlan(10.0, 1.0, 2);  // 21s no-mat query
  cost::ClusterStats stats = cost::MakeCluster(1, 15.0, 10.0);
  SimulationOptions opts;
  opts.monitoring_interval = 2.0;
  ClusterSimulator sim(stats, opts);

  ClusterTrace full_trace = ClusterTrace::FromScheduled({{1.0, 3.0}});
  auto full = sim.Run(p, MaterializationConfig::NoMat(p),
                      RecoveryMode::kFullRestart, full_trace);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(full->completed);
  EXPECT_EQ(full->restarts, 1);
  EXPECT_DOUBLE_EQ(full->runtime, 33.0);  // 2 detect + 10 repair + 21 run

  // Fine-grained on one node with one collapsed op recovers the identical
  // unit, so it must agree to the bit.
  ClusterTrace fine_trace = ClusterTrace::FromScheduled({{1.0, 3.0}});
  auto fine = sim.Run(p, MaterializationConfig::NoMat(p),
                      RecoveryMode::kFineGrained, fine_trace);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_TRUE(fine->completed);
  EXPECT_EQ(fine->restarts, 1);
  EXPECT_DOUBLE_EQ(fine->runtime, 33.0);

  // WAL replay with free log writes and a unity replay factor is the
  // fine-grained discipline by construction — same single outage, same
  // clock, on the same crafted trace.
  SimulationOptions wal_opts = opts;
  wal_opts.wal_write_cost = 0.0;
  wal_opts.wal_replay_factor = 1.0;
  ClusterSimulator wal_sim(stats, wal_opts);
  ClusterTrace wal_trace = ClusterTrace::FromScheduled({{1.0, 3.0}});
  auto wal = wal_sim.Run(p, MaterializationConfig::NoMat(p),
                         RecoveryMode::kWalReplay, wal_trace);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_TRUE(wal->completed);
  EXPECT_DOUBLE_EQ(wal->runtime, 33.0);
}

TEST(SimulatorRegressionTest, DetectionDelayParityWithFineGrained) {
  // On a single-node, single-collapsed-op chain, fine-grained and full
  // restart recover the identical unit, so their runtimes must agree —
  // including the detection delay. Before the fix, full restart skipped
  // the delay and came out cheaper whenever a failure hit.
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(1, 15.0, 1.0);
  SimulationOptions opts;
  opts.monitoring_interval = 2.0;
  ClusterSimulator sim(stats, opts);
  int failed_runs = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    ClusterTrace t1 = ClusterTrace::Generate(stats, seed);
    ClusterTrace t2 = ClusterTrace::Generate(stats, seed);
    auto fine = sim.Run(p, MaterializationConfig::NoMat(p),
                        RecoveryMode::kFineGrained, t1);
    auto full = sim.Run(p, MaterializationConfig::NoMat(p),
                        RecoveryMode::kFullRestart, t2);
    ASSERT_TRUE(fine.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_DOUBLE_EQ(fine->runtime, full->runtime) << "seed=" << seed;
    if (fine->restarts > 0) ++failed_runs;
  }
  EXPECT_GT(failed_runs, 0);  // the parity claim was actually exercised
}

// One 100 s scan on one node (MTTR 10) with a single scheduled failure at
// t=60: pins the exact clock of the WAL-replay and fine-grained paths,
// which no statistical test resolves to the last bit.
Plan SingleScanPlan() {
  PlanBuilder b("scan");
  const OpId scan = b.Scan("R", 1e6, 64, 100.0);
  b.plan().mutable_node(scan).materialize_cost = 0.0;
  return std::move(b).Build();
}

TEST(SimulatorRegressionTest, WalReplayScheduledFailureExactClock) {
  // Attempt 1 runs [0, 60) and logs 60 s of progress before the failure.
  // The retry starts at 70 (MTTR 10), replays the log at 0.25 speed
  // (15 s), then runs the 40 s of fresh work: done at exactly 125.
  Plan p = SingleScanPlan();
  cost::ClusterStats stats = cost::MakeCluster(1, 1e9, 10.0);
  SimulationOptions opts;
  opts.wal_replay_factor = 0.25;
  ClusterSimulator sim(stats, opts);
  ClusterTrace trace = ClusterTrace::FromScheduled({{60.0}});
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kWalReplay, trace);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->completed);
  EXPECT_EQ(r->restarts, 1);
  EXPECT_EQ(r->runtime, 125.0);
}

TEST(SimulatorRegressionTest, FineGrainedScheduledFailureExactClock) {
  // Fine-grained recovery keeps no progress: the failure at 60 kills the
  // only attempt, which reruns the whole 100 s scan from 70 (MTTR 10) and
  // finishes at exactly 60 + 10 + 100 = 170.
  Plan p = SingleScanPlan();
  cost::ClusterStats stats = cost::MakeCluster(1, 1e9, 10.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::FromScheduled({{60.0}});
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->completed);
  EXPECT_EQ(r->restarts, 1);
  EXPECT_EQ(r->runtime, 170.0);
}

}  // namespace
}  // namespace xdbft::cluster
