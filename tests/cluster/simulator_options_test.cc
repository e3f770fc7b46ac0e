// Tests for the simulator's extended options: monitoring-interval failure
// detection and the fields MatchModel copies from a cost model.
#include <gtest/gtest.h>

#include "cluster/simulator.h"

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
  EXPECT_EQ(got.attempt_log, &attempts);

  // Without a base, the other fields are SimulationOptions' defaults.
  const SimulationOptions plain = MatchModel(model);
  const SimulationOptions defaults;
  EXPECT_EQ(plain.pipe_constant, 0.5);
  EXPECT_EQ(plain.wal_write_cost, 0.7);
  EXPECT_EQ(plain.wal_replay_factor, 0.125);
  EXPECT_EQ(plain.max_restarts, defaults.max_restarts);
  EXPECT_EQ(plain.monitoring_interval, defaults.monitoring_interval);
  EXPECT_EQ(plain.attempt_log, nullptr);
}

}  // namespace
}  // namespace xdbft::cluster
