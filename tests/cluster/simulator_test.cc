#include "cluster/simulator.h"

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "ft/ft_cost.h"
#include "obs/attempt_log.h"

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

ClusterTrace FailFreeTrace(int nodes) {
  return ClusterTrace::Generate(
      cost::MakeCluster(nodes, 1e18, 1.0), 1);
}

TEST(SimulatorTest, NoFailuresGivesBaselinePlusMaterialization) {
  Plan p = ChainPlan(10.0, 1.0, 4);
  cost::ClusterStats stats = cost::MakeCluster(4, 1e18, 1.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::Generate(stats, 1);

  // no-mat: single collapsed op of 4 x 10s + sink materialization 1s.
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->completed);
  EXPECT_DOUBLE_EQ(r->runtime, 41.0);
  EXPECT_EQ(r->restarts, 0);

  // all-mat adds one materialization per operator.
  auto r2 = sim.Run(p, MaterializationConfig::AllMat(p),
                    RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->runtime, 44.0);
}

TEST(SimulatorTest, BaselineRuntimeIsNoMatNoFailureMakespan) {
  Plan p = ChainPlan(10.0, 1.0, 4);
  ClusterSimulator sim(cost::MakeCluster(4, 3600.0, 1.0));
  auto base = sim.BaselineRuntime(p);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(*base, 41.0);
}

TEST(SimulatorTest, FailureDelaysFineGrainedRun) {
  Plan p = ChainPlan(10.0, 1.0, 2);  // one collapsed op, t = 21 under no-mat
  cost::ClusterStats stats = cost::MakeCluster(1, 30.0, 2.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::Generate(stats, 7);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->completed);
  if (r->restarts > 0) {
    EXPECT_GT(r->runtime, 21.0);
  } else {
    EXPECT_DOUBLE_EQ(r->runtime, 21.0);
  }
}

TEST(SimulatorTest, MaterializationLimitsLossUnderFailures) {
  // Average over many traces: with frequent failures, the all-mat run
  // (restart only a 11s unit) beats the no-mat run (restart the full 41s
  // chain).
  Plan p = ChainPlan(10.0, 0.25, 4);
  cost::ClusterStats stats = cost::MakeCluster(2, 60.0, 1.0);
  ClusterSimulator sim(stats);
  double no_mat_total = 0.0, all_mat_total = 0.0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    ClusterTrace t1 = ClusterTrace::Generate(stats, seed);
    ClusterTrace t2 = ClusterTrace::Generate(stats, seed);
    auto r1 = sim.Run(p, MaterializationConfig::NoMat(p),
                      RecoveryMode::kFineGrained, t1);
    auto r2 = sim.Run(p, MaterializationConfig::AllMat(p),
                      RecoveryMode::kFineGrained, t2);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    no_mat_total += r1->runtime;
    all_mat_total += r2->runtime;
  }
  EXPECT_LT(all_mat_total, no_mat_total);
}

TEST(SimulatorTest, FullRestartRestartsWholeQuery) {
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(1, 15.0, 1.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::Generate(stats, 5);
  auto fine = sim.Run(p, MaterializationConfig::NoMat(p),
                      RecoveryMode::kFineGrained, trace);
  ClusterTrace trace2 = ClusterTrace::Generate(stats, 5);
  auto full = sim.Run(p, MaterializationConfig::NoMat(p),
                      RecoveryMode::kFullRestart, trace2);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(full.ok());
  // Under a no-mat config with a single-sink chain both semantics restart
  // the same unit, so their runtimes agree.
  EXPECT_DOUBLE_EQ(fine->runtime, full->runtime);
}

TEST(SimulatorTest, FullRestartAbortsAfterMaxRestarts) {
  Plan p = ChainPlan(1000.0, 1.0, 4);  // 4001s query
  cost::ClusterStats stats = cost::MakeCluster(10, 600.0, 1.0);
  SimulationOptions opts;
  opts.max_restarts = 20;
  ClusterSimulator sim(stats, opts);
  ClusterTrace trace = ClusterTrace::Generate(stats, 3);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFullRestart, trace);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->completed);
  EXPECT_EQ(r->restarts, 20);
}

TEST(SimulatorTest, FineGrainedAlwaysCompletes) {
  Plan p = ChainPlan(50.0, 1.0, 4);
  cost::ClusterStats stats = cost::MakeCluster(10, 120.0, 1.0);
  ClusterSimulator sim(stats);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ClusterTrace trace = ClusterTrace::Generate(stats, seed);
    auto r = sim.Run(p, MaterializationConfig::AllMat(p),
                     RecoveryMode::kFineGrained, trace);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
  }
}

TEST(SimulatorTest, RejectsTraceNodeMismatch) {
  Plan p = ChainPlan();
  ClusterSimulator sim(cost::MakeCluster(4, 3600.0, 1.0));
  ClusterTrace trace = FailFreeTrace(2);
  EXPECT_FALSE(sim.Run(p, MaterializationConfig::NoMat(p),
                       RecoveryMode::kFineGrained, trace)
                   .ok());
}

TEST(SimulatorTest, RunManyAveragesRuntimes) {
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(2, 1e18, 1.0);
  ClusterSimulator sim(stats);
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::NoMat(p);
  sp.recovery = RecoveryMode::kFineGrained;
  auto traces = GenerateTraceSet(stats, 5, 9);
  auto r = sim.RunMany(sp, traces);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->completed);
  EXPECT_DOUBLE_EQ(r->runtime, 21.0);
}

TEST(SimulatorTest, RunManyReportsPercentiles) {
  Plan p = ChainPlan(50.0, 1.0, 4);
  cost::ClusterStats stats = cost::MakeCluster(4, 300.0, 1.0);
  ClusterSimulator sim(stats);
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::AllMat(p);
  sp.recovery = RecoveryMode::kFineGrained;
  auto traces = GenerateTraceSet(stats, 30, 21);
  auto r = sim.RunMany(sp, traces);
  ASSERT_TRUE(r.ok());
  // p50 <= mean-ish <= p95 ordering and both at least the no-failure
  // makespan.
  EXPECT_LE(r->runtime_p50, r->runtime_p95);
  EXPECT_GE(r->runtime_p95, r->runtime * 0.999);
  EXPECT_GT(r->runtime_p50, 0.0);
}

TEST(SimulatorTest, SingleRunPercentilesEqualRuntime) {
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(2, 1e18, 1.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::Generate(stats, 1);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->runtime_p50, r->runtime);
  EXPECT_DOUBLE_EQ(r->runtime_p95, r->runtime);
}

TEST(SimulatorTest, StartTimeShiftsQueryOntoTraceTimeline) {
  // A query started later sees a different stretch of the same trace;
  // with no failures the runtime is unchanged.
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(2, 1e18, 1.0);
  ClusterSimulator sim(stats);
  ClusterTrace trace = ClusterTrace::Generate(stats, 1);
  auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                   RecoveryMode::kFineGrained, trace, /*start_time=*/500.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->runtime, 21.0);
}

TEST(SimulatorTest, RunManyRejectsEmptyTraceSet) {
  Plan p = ChainPlan();
  ClusterSimulator sim(cost::MakeCluster(2, 3600.0, 1.0));
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::NoMat(p);
  std::vector<ClusterTrace> none;
  EXPECT_FALSE(sim.RunMany(sp, none).ok());
}

TEST(SimulatorTest, PartitionSkewStretchesRuntime) {
  Plan p = ChainPlan(10.0, 1.0, 2);
  cost::ClusterStats stats = cost::MakeCluster(8, 1e18, 1.0);
  SimulationOptions skewed;
  skewed.partition_skew = 0.3;
  ClusterSimulator sim_plain(stats);
  ClusterSimulator sim_skew(stats, skewed);
  ClusterTrace t1 = ClusterTrace::Generate(stats, 1);
  ClusterTrace t2 = ClusterTrace::Generate(stats, 1);
  auto r_plain = sim_plain.Run(p, MaterializationConfig::NoMat(p),
                               RecoveryMode::kFineGrained, t1);
  auto r_skew = sim_skew.Run(p, MaterializationConfig::NoMat(p),
                             RecoveryMode::kFineGrained, t2);
  ASSERT_TRUE(r_plain.ok());
  ASSERT_TRUE(r_skew.ok());
  EXPECT_GT(r_skew->runtime, r_plain->runtime);
  EXPECT_LT(r_skew->runtime, r_plain->runtime * 1.31);
}

// Fig. 12a property: the analytic estimate tracks the simulated runtime.
// The paper reports errors up to ~30% at very low MTBF with the model
// generally underestimating; we assert agreement within 40% across a wide
// MTBF range and correlation of the trend.
TEST(SimulatorTest, CostModelTracksSimulation) {
  Plan p = ChainPlan(100.0, 5.0, 4);
  std::vector<double> estimates, simulated;
  for (double mtbf : {600.0, 3600.0, 86400.0}) {
    cost::ClusterStats stats = cost::MakeCluster(10, mtbf, 1.0);
    ft::FtCostContext ctx;
    ctx.cluster = stats;
    ft::FtCostModel model(ctx);
    const auto config = MaterializationConfig::AllMat(p);
    auto est = model.Estimate(p, config);
    ASSERT_TRUE(est.ok());

    ClusterSimulator sim(stats);
    double total = 0.0;
    const int kRuns = 30;
    for (uint64_t seed = 0; seed < kRuns; ++seed) {
      ClusterTrace trace = ClusterTrace::Generate(stats, seed);
      auto r = sim.Run(p, config, RecoveryMode::kFineGrained, trace);
      ASSERT_TRUE(r.ok());
      total += r->runtime;
    }
    const double mean = total / kRuns;
    estimates.push_back(est->dominant_cost);
    simulated.push_back(mean);
    EXPECT_NEAR(est->dominant_cost, mean, mean * 0.4) << "mtbf=" << mtbf;
  }
  EXPECT_GT(PearsonCorrelation(estimates, simulated), 0.95);
}

// RunMany's oracle: one Run per trace, folded per the SimulationResult
// contract (runtime stats over the completed traces, aborted ones apart).
SimulationResult FoldRuns(const ClusterSimulator& sim,
                          const ft::SchemePlan& sp,
                          std::vector<ClusterTrace> traces) {
  SimulationResult agg;
  agg.completed = true;
  std::vector<double> done, aborted;
  for (ClusterTrace& trace : traces) {
    const SimulationResult r = sim.Run(sp, trace).ValueOrDie();
    agg.restarts += r.restarts;
    agg.failures_hit += r.failures_hit;
    if (r.completed) {
      done.push_back(r.runtime);
    } else {
      agg.completed = false;
      ++agg.aborted;
      aborted.push_back(r.runtime);
    }
  }
  agg.aborted_seconds = Mean(aborted);
  const std::vector<double>& basis = done.empty() ? aborted : done;
  agg.runtime = Mean(basis);
  agg.runtime_p50 = Percentile(basis, 50.0);
  agg.runtime_p95 = Percentile(basis, 95.0);
  return agg;
}

void ExpectSameRecords(const obs::AttemptTimeline& got,
                       const obs::AttemptTimeline& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  for (size_t i = 0; i < got.records.size(); ++i) {
    const obs::AttemptRecord& a = got.records[i];
    const obs::AttemptRecord& b = want.records[i];
    EXPECT_EQ(a.label, b.label) << "record " << i;
    EXPECT_EQ(a.node, b.node) << "record " << i;
    EXPECT_EQ(a.attempt, b.attempt) << "record " << i;
    EXPECT_EQ(a.dispatch_seconds, b.dispatch_seconds) << "record " << i;
    EXPECT_EQ(a.finish_seconds, b.finish_seconds) << "record " << i;
    EXPECT_EQ(a.killed, b.killed) << "record " << i;
  }
}

TEST(SimulatorTest, RunManyEqualsAFoldOfRunsBitForBit) {
  const Plan p = ChainPlan(50.0, 2.0, 5);
  const cost::ClusterStats stats = cost::MakeCluster(4, 150.0, 1.0);
  const MaterializationConfig configs[] = {
      MaterializationConfig::NoMat(p), MaterializationConfig::AllMat(p),
      MaterializationConfig::FromFreeMask(p, 0b101)};
  SimulationOptions variants[4];
  variants[1].max_restarts = 3;  // aborted traces
  variants[2].monitoring_interval = 2.0;
  variants[2].partition_skew = 0.3;
  variants[3].wal_write_cost = 0.1;
  variants[3].wal_replay_factor = 0.5;
  int aborted_seen = 0;
  for (const SimulationOptions& base : variants) {
    for (const MaterializationConfig& config : configs) {
      for (RecoveryMode recovery :
           {RecoveryMode::kFineGrained, RecoveryMode::kFullRestart,
            RecoveryMode::kWalReplay}) {
        ft::SchemePlan sp;
        sp.plan = p;
        sp.config = config;
        sp.recovery = recovery;
        const std::vector<ClusterTrace> traces = GenerateTraceSet(stats, 6, 5);
        obs::AttemptTimeline many_log, fold_log;
        SimulationOptions many_options = base;
        many_options.attempt_log = &many_log;
        SimulationOptions fold_options = base;
        fold_options.attempt_log = &fold_log;

        std::vector<ClusterTrace> many_traces = traces;
        auto many =
            ClusterSimulator(stats, many_options).RunMany(sp, many_traces);
        ASSERT_TRUE(many.ok()) << many.status().ToString();
        const SimulationResult want =
            FoldRuns(ClusterSimulator(stats, fold_options), sp, traces);
        EXPECT_EQ(many->completed, want.completed);
        EXPECT_EQ(many->runtime, want.runtime);
        EXPECT_EQ(many->restarts, want.restarts);
        EXPECT_EQ(many->failures_hit, want.failures_hit);
        EXPECT_EQ(many->aborted, want.aborted);
        EXPECT_EQ(many->aborted_seconds, want.aborted_seconds);
        EXPECT_EQ(many->runtime_p50, want.runtime_p50);
        EXPECT_EQ(many->runtime_p95, want.runtime_p95);
        ExpectSameRecords(many_log, fold_log);
        aborted_seen += many->aborted;
      }
    }
  }
  EXPECT_GT(aborted_seen, 0);  // the aborting variant did abort
}

TEST(SimulatorTest, RunManyRejectsANodeCountMismatchOnAnyTrace) {
  const Plan p = ChainPlan(50.0, 2.0, 3);
  const cost::ClusterStats stats = cost::MakeCluster(4, 150.0, 1.0);
  ft::SchemePlan sp;
  sp.plan = p;
  sp.config = MaterializationConfig::AllMat(p);
  const std::string kMismatch = "trace node count does not match cluster";
  for (size_t bad : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(bad);
    std::vector<ClusterTrace> traces = GenerateTraceSet(stats, 4, 5);
    traces[bad] = FailFreeTrace(2);
    obs::AttemptTimeline many_log, fold_log;
    SimulationOptions options;
    options.attempt_log = &many_log;
    auto r = ClusterSimulator(stats, options).RunMany(sp, traces);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), kMismatch);
    // The traces before the bad one ran, as a fold of Run calls would.
    options.attempt_log = &fold_log;
    FoldRuns(ClusterSimulator(stats, options), sp,
             std::vector<ClusterTrace>(traces.begin(), traces.begin() + bad));
    ExpectSameRecords(many_log, fold_log);
  }
  // Error order: cluster stats, trace 0's node count, the collapse, then
  // the later traces' node counts.
  ft::SchemePlan broken = sp;
  broken.config = MaterializationConfig(1);  // wrong size for the plan
  std::vector<ClusterTrace> late_bad = GenerateTraceSet(stats, 3, 5);
  late_bad[1] = FailFreeTrace(2);
  EXPECT_EQ(ClusterSimulator(stats).RunMany(broken, late_bad)
                .status()
                .message(),
            "config size does not match plan");
  std::vector<ClusterTrace> first_bad = late_bad;
  first_bad[0] = FailFreeTrace(2);
  EXPECT_EQ(ClusterSimulator(stats).RunMany(broken, first_bad)
                .status()
                .message(),
            kMismatch);
  cost::ClusterStats bad_stats = stats;
  bad_stats.mtbf_seconds = -1.0;
  EXPECT_EQ(ClusterSimulator(bad_stats).RunMany(broken, first_bad).status(),
            bad_stats.Validate());
}

TEST(SimulationResultTest, ToStringMentionsState) {
  SimulationResult r;
  r.completed = true;
  r.runtime = 12.0;
  EXPECT_NE(r.ToString().find("completed"), std::string::npos);
  r.completed = false;
  EXPECT_NE(r.ToString().find("ABORTED"), std::string::npos);
}

}  // namespace
}  // namespace xdbft::cluster
