#include "ft/checkpointing.h"

#include <gtest/gtest.h>

#include <limits>

namespace xdbft::ft {
namespace {

FailureParams Params(double mtbf, double mttr = 1.0) {
  FailureParams p;
  p.mtbf_cost = mtbf;
  p.mttr_cost = mttr;
  return p;
}

TEST(CheckpointParamsTest, Validation) {
  CheckpointParams c;
  EXPECT_TRUE(c.Validate().ok());
  c.checkpoint_cost = -1.0;
  EXPECT_FALSE(c.Validate().ok());
  c = CheckpointParams{};
  c.interval = -2.0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(CheckpointingTest, SegmentCount) {
  EXPECT_EQ(NumCheckpointSegments(100.0, 0.0), 1);
  EXPECT_EQ(NumCheckpointSegments(100.0, 200.0), 1);
  EXPECT_EQ(NumCheckpointSegments(100.0, 100.0), 1);
  EXPECT_EQ(NumCheckpointSegments(100.0, 50.0), 2);
  EXPECT_EQ(NumCheckpointSegments(100.0, 30.0), 4);
  // Beyond INT_MAX segments the count saturates (the cast is undefined).
  EXPECT_EQ(NumCheckpointSegments(1e300, 1.0),
            std::numeric_limits<int>::max());
}

TEST(CheckpointingTest, DisabledEqualsPlainRuntime) {
  CheckpointParams ckpt;
  ckpt.interval = 0.0;
  const FailureParams p = Params(600.0);
  EXPECT_DOUBLE_EQ(OperatorTotalRuntimeWithCheckpoints(100.0, ckpt, p),
                   OperatorTotalRuntime(100.0, p));
}

TEST(CheckpointingTest, ZeroDurationIsFree) {
  CheckpointParams ckpt;
  ckpt.interval = 10.0;
  EXPECT_DOUBLE_EQ(
      OperatorTotalRuntimeWithCheckpoints(0.0, ckpt, Params(600.0)), 0.0);
}

TEST(CheckpointingTest, NoFailuresMeansCheckpointsOnlyAddOverhead) {
  CheckpointParams ckpt;
  ckpt.interval = 25.0;
  ckpt.checkpoint_cost = 2.0;
  const FailureParams p = Params(1e15, 0.0);
  // 4 segments of 25s, 3 checkpoint writes of 2s.
  EXPECT_NEAR(OperatorTotalRuntimeWithCheckpoints(100.0, ckpt, p),
              100.0 + 3 * 2.0, 1e-6);
}

TEST(CheckpointingTest, HelpsLongOperatorsUnderFrequentFailures) {
  // The paper's §7 motivation: a long operator (t ~ MTBF) benefits from
  // splitting into segments.
  const FailureParams p = Params(600.0);
  const double t = 1200.0;
  const double plain = OperatorTotalRuntime(t, p);
  CheckpointParams ckpt;
  ckpt.checkpoint_cost = 2.0;
  ckpt.interval = 120.0;
  const double with = OperatorTotalRuntimeWithCheckpoints(t, ckpt, p);
  EXPECT_LT(with, plain * 0.5);
}

TEST(CheckpointingTest, HurtsShortOperators) {
  // A short operator under rare failures only pays the write costs.
  const FailureParams p = Params(86400.0);
  CheckpointParams ckpt;
  ckpt.checkpoint_cost = 5.0;
  ckpt.interval = 10.0;
  EXPECT_GT(OperatorTotalRuntimeWithCheckpoints(60.0, ckpt, p),
            OperatorTotalRuntime(60.0, p));
}

TEST(CheckpointingTest, OptimalIntervalBeatsNeighbors) {
  const FailureParams p = Params(600.0);
  const double t = 1800.0, c = 3.0;
  const double opt = OptimalCheckpointInterval(t, c, p);
  CheckpointParams ckpt;
  ckpt.checkpoint_cost = c;
  ckpt.interval = opt;
  const double best = OperatorTotalRuntimeWithCheckpoints(t, ckpt, p);
  for (double factor : {0.5, 0.8, 1.25, 2.0}) {
    ckpt.interval = opt * factor;
    EXPECT_GE(OperatorTotalRuntimeWithCheckpoints(t, ckpt, p),
              best - 1e-9)
        << factor;
  }
}

TEST(CheckpointingTest, OptimalIntervalNearYoungDaly) {
  // The exact discrete optimum lands in the same ballpark as the
  // first-order sqrt(2*C*MTBF) rule for t >> delta*.
  const FailureParams p = Params(1000.0, 0.0);
  const double c = 2.0;
  const double yd = YoungDalyInterval(c, p.mtbf_cost);  // ~63.2s
  const double opt = OptimalCheckpointInterval(10000.0, c, p);
  EXPECT_GT(opt, yd / 3.0);
  EXPECT_LT(opt, yd * 3.0);
}

TEST(CheckpointingTest, NoCheckpointWhenFailureFree) {
  const FailureParams p = Params(1e15, 0.0);
  EXPECT_DOUBLE_EQ(OptimalCheckpointInterval(1000.0, 5.0, p), 1000.0);
}

TEST(CheckpointingTest, YoungDalyFormula) {
  EXPECT_DOUBLE_EQ(YoungDalyInterval(2.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(YoungDalyInterval(0.0, 100.0), 0.0);
}

// Property sweep: with free checkpoints, more segments never hurt.
class FreeCheckpoints : public ::testing::TestWithParam<double> {};

TEST_P(FreeCheckpoints, MonotoneImprovement) {
  const FailureParams p = Params(GetParam());
  const double t = 500.0;
  CheckpointParams ckpt;
  ckpt.checkpoint_cost = 0.0;
  double prev = OperatorTotalRuntime(t, p);
  for (int k = 2; k <= 32; k *= 2) {
    ckpt.interval = t / k;
    const double cost = OperatorTotalRuntimeWithCheckpoints(t, ckpt, p);
    EXPECT_LE(cost, prev + 1e-9) << "k=" << k;
    prev = cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Mtbfs, FreeCheckpoints,
                         ::testing::Values(100.0, 600.0, 3600.0));

}  // namespace
}  // namespace xdbft::ft
