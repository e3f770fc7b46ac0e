#include "cost/cost_params.h"

#include <gtest/gtest.h>

#include <limits>

namespace xdbft::cost {
namespace {

TEST(ClusterStatsTest, EffectiveMtbfDividesByNodeCount) {
  ClusterStats s = MakeCluster(10, 3600.0);
  EXPECT_DOUBLE_EQ(s.effective_mtbf(), 360.0);
  s.num_nodes = 1;
  EXPECT_DOUBLE_EQ(s.effective_mtbf(), 3600.0);
}

TEST(ClusterStatsTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(ClusterStats{}.Validate().ok());
}

TEST(ClusterStatsTest, ValidateRejectsBadValues) {
  ClusterStats s;
  s.num_nodes = 0;
  EXPECT_FALSE(s.Validate().ok());
  s = ClusterStats{};
  s.mtbf_seconds = 0.0;
  EXPECT_FALSE(s.Validate().ok());
  s = ClusterStats{};
  s.mttr_seconds = -1.0;
  EXPECT_FALSE(s.Validate().ok());
}

TEST(ClusterStatsTest, ToStringIsHumanReadable) {
  ClusterStats s = MakeCluster(10, kSecondsPerHour, 1.0);
  EXPECT_NE(s.ToString().find("n=10"), std::string::npos);
}

TEST(CostModelParamsTest, ValidateRanges) {
  CostModelParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.pipe_constant = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = CostModelParams{};
  p.pipe_constant = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p = CostModelParams{};
  p.success_target = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = CostModelParams{};
  p.cost_constant = -2.0;
  EXPECT_FALSE(p.Validate().ok());
  // NaN fails every comparison, so a range test written as "below 0 or
  // above 1" let it through to NaN costs.
  for (double factor : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    p = CostModelParams{};
    p.wal_replay_factor = factor;
    EXPECT_FALSE(p.Validate().ok()) << factor;
  }
}

TEST(CostParamsTest, DurationConstants) {
  EXPECT_DOUBLE_EQ(kSecondsPerHour, 3600.0);
  EXPECT_DOUBLE_EQ(kSecondsPerWeek, 7.0 * 86400.0);
}

}  // namespace
}  // namespace xdbft::cost
