// Tests for the simulator's extended options: monitoring-interval failure
// detection and intra-operator checkpointing.
#include <gtest/gtest.h>

#include "cluster/simulator.h"
#include "ft/checkpointing.h"

namespace xdbft::cluster {
namespace {

using ft::MaterializationConfig;
using ft::RecoveryMode;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

Plan OneOpPlan(double seconds) {
  PlanBuilder b("one-op");
  auto s = b.Scan("R", 1e6, 64, seconds / 2.0);
  b.Unary(OpType::kMapUdf, "op", s, seconds / 2.0, 1.0);
  return std::move(b).Build();
}

TEST(MonitoringIntervalTest, DelaysDetection) {
  // With failures present, a coarser monitoring interval can only delay
  // recovery (never speed it up).
  Plan p = OneOpPlan(100.0);
  const auto stats = cost::MakeCluster(2, 80.0, 1.0);
  SimulationOptions immediate;
  SimulationOptions coarse;
  coarse.monitoring_interval = 10.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ClusterTrace t1 = ClusterTrace::Generate(stats, seed);
    ClusterTrace t2 = ClusterTrace::Generate(stats, seed);
    auto r1 = ClusterSimulator(stats, immediate)
                  .Run(p, MaterializationConfig::NoMat(p),
                       RecoveryMode::kFineGrained, t1);
    auto r2 = ClusterSimulator(stats, coarse)
                  .Run(p, MaterializationConfig::NoMat(p),
                       RecoveryMode::kFineGrained, t2);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_GE(r2->runtime, r1->runtime - 1e-9) << seed;
  }
}

TEST(MonitoringIntervalTest, NoEffectWithoutFailures) {
  Plan p = OneOpPlan(100.0);
  const auto stats = cost::MakeCluster(2, 1e18, 1.0);
  SimulationOptions coarse;
  coarse.monitoring_interval = 5.0;
  ClusterTrace trace = ClusterTrace::Generate(stats, 1);
  auto r = ClusterSimulator(stats, coarse)
               .Run(p, MaterializationConfig::NoMat(p),
                    RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->runtime, 101.0);
}

TEST(CheckpointSimTest, OverheadOnlyWithoutFailures) {
  // 100s of work + 1s sink mat; interval 25s -> 5 segments (t(c)=101),
  // i.e. 4 checkpoint writes of 2s.
  Plan p = OneOpPlan(100.0);
  const auto stats = cost::MakeCluster(1, 1e18, 1.0);
  SimulationOptions opts;
  opts.checkpoint_interval = 25.0;
  opts.checkpoint_cost = 2.0;
  ClusterTrace trace = ClusterTrace::Generate(stats, 1);
  auto r = ClusterSimulator(stats, opts)
               .Run(p, MaterializationConfig::NoMat(p),
                    RecoveryMode::kFineGrained, trace);
  ASSERT_TRUE(r.ok());
  const int segments = ft::NumCheckpointSegments(101.0, 25.0);
  EXPECT_EQ(segments, 5);
  EXPECT_DOUBLE_EQ(r->runtime, 101.0 + (segments - 1) * 2.0);
}

TEST(CheckpointSimTest, ReducesRuntimeUnderFrequentFailures) {
  // A 600s operator against a 300s-MTBF node: without checkpoints, runs
  // practically never finish a clean window; with 30s segments they do.
  Plan p = OneOpPlan(600.0);
  const auto stats = cost::MakeCluster(1, 300.0, 1.0);
  SimulationOptions plain;
  SimulationOptions ckpt;
  ckpt.checkpoint_interval = 30.0;
  ckpt.checkpoint_cost = 1.0;
  double plain_total = 0.0, ckpt_total = 0.0;
  for (uint64_t seed = 0; seed < 15; ++seed) {
    ClusterTrace t1 = ClusterTrace::Generate(stats, seed);
    ClusterTrace t2 = ClusterTrace::Generate(stats, seed);
    auto r1 = ClusterSimulator(stats, plain)
                  .Run(p, MaterializationConfig::NoMat(p),
                       RecoveryMode::kFineGrained, t1);
    auto r2 = ClusterSimulator(stats, ckpt)
                  .Run(p, MaterializationConfig::NoMat(p),
                       RecoveryMode::kFineGrained, t2);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    plain_total += r1->runtime;
    ckpt_total += r2->runtime;
  }
  EXPECT_LT(ckpt_total, plain_total / 2.0);
}

TEST(CheckpointSimTest, ModelTracksSimulation) {
  Plan p = OneOpPlan(600.0);
  const auto stats = cost::MakeCluster(1, 600.0, 1.0);
  SimulationOptions opts;
  opts.checkpoint_interval = 60.0;
  opts.checkpoint_cost = 2.0;
  ClusterSimulator sim(stats, opts);
  double total = 0.0;
  const int kRuns = 60;
  for (uint64_t seed = 0; seed < kRuns; ++seed) {
    ClusterTrace trace = ClusterTrace::Generate(stats, seed);
    auto r = sim.Run(p, MaterializationConfig::NoMat(p),
                     RecoveryMode::kFineGrained, trace);
    total += r->runtime;
  }
  const double mean = total / kRuns;
  ft::FtCostContext ctx;
  ctx.cluster = stats;
  ft::CheckpointParams ckpt;
  ckpt.interval = 60.0;
  ckpt.checkpoint_cost = 2.0;
  const double model = ft::OperatorTotalRuntimeWithCheckpoints(
      601.0, ckpt, ctx.MakeFailureParams());
  EXPECT_NEAR(model, mean, mean * 0.35);
}

TEST(MatchModelTest, CopiesTheModelFieldsAndKeepsTheRest) {
  cost::CostModelParams model;
  model.pipe_constant = 0.5;
  model.wal_write_cost = 0.7;
  model.wal_replay_factor = 0.125;
  obs::AttemptTimeline attempts;
  SimulationOptions base;
  base.pipe_constant = 3.0;
  base.max_restarts = 7;
  base.partition_skew = 0.2;
  base.monitoring_interval = 2.0;
  base.checkpoint_interval = 30.0;
  base.checkpoint_cost = 0.5;
  base.wal_write_cost = 9.0;
  base.wal_replay_factor = 9.0;
  base.attempt_log = &attempts;

  const SimulationOptions got = MatchModel(model, base);
  EXPECT_EQ(got.pipe_constant, 0.5);
  EXPECT_EQ(got.wal_write_cost, 0.7);
  EXPECT_EQ(got.wal_replay_factor, 0.125);
  EXPECT_EQ(got.max_restarts, 7);
  EXPECT_EQ(got.partition_skew, 0.2);
  EXPECT_EQ(got.monitoring_interval, 2.0);
  EXPECT_EQ(got.checkpoint_interval, 30.0);
  EXPECT_EQ(got.checkpoint_cost, 0.5);
  EXPECT_EQ(got.attempt_log, &attempts);

  // Without a base, the other fields are SimulationOptions' defaults.
  const SimulationOptions plain = MatchModel(model);
  const SimulationOptions defaults;
  EXPECT_EQ(plain.pipe_constant, 0.5);
  EXPECT_EQ(plain.wal_write_cost, 0.7);
  EXPECT_EQ(plain.wal_replay_factor, 0.125);
  EXPECT_EQ(plain.max_restarts, defaults.max_restarts);
  EXPECT_EQ(plain.checkpoint_interval, defaults.checkpoint_interval);
  EXPECT_EQ(plain.attempt_log, nullptr);
}

}  // namespace
}  // namespace xdbft::cluster
