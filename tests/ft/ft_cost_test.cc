#include "ft/ft_cost.h"

#include <gtest/gtest.h>

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

// Same structure/costs as the collapsed-plan test: reproduces the paper's
// §3.5 running example (Table 2) with MTBF_cost = 60 and MTTR = 0.
Plan Fig3Plan() {
  PlanBuilder b("fig3");
  const OpId s1 = b.Scan("R", 1e6, 100, 1.0);
  const OpId s2 = b.Scan("S", 1e6, 100, 2.0);
  const OpId j = b.Binary(OpType::kHashJoin, "join", s1, s2, 1.5, 0.5);
  const OpId m = b.Unary(OpType::kMapUdf, "map", j, 1.0, 1.0);
  const OpId r = b.Unary(OpType::kRepartition, "rep", m, 1.5, 0.5);
  b.Unary(OpType::kReduceUdf, "red1", r, 0.8, 0.2);
  b.Unary(OpType::kReduceUdf, "red2", r, 1.6, 0.4);
  return std::move(b).Build();
}

MaterializationConfig Fig3Config(const Plan& p) {
  auto c = MaterializationConfig::NoMat(p);
  c.set_materialized(2, true);
  c.set_materialized(4, true);
  return c;
}

// MTBF_cost = 60 for the whole executing group: a single node with
// MTBF = 60s gives effective_mtbf = 60.
FtCostContext Table2Context() {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(/*num_nodes=*/1, /*mtbf=*/60.0,
                                  /*mttr=*/0.0);
  ctx.model.success_target = 0.95;
  return ctx;
}

TEST(FtCostTest, PaperRunningExamplePathCosts) {
  Plan p = Fig3Plan();
  FtCostModel model(Table2Context());
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  // Exact (unrounded) values: TPt1 = 8.186, TPt2 = 9.186. The paper
  // reports 8.13/9.13 after rounding gamma to two digits.
  EXPECT_NEAR(model.PathCost(*cp, {0, 1, 2}), 8.186, 0.01);
  EXPECT_NEAR(model.PathCost(*cp, {0, 1, 3}), 9.186, 0.01);
}

TEST(FtCostTest, DominantPathIsTheLongerSink) {
  Plan p = Fig3Plan();
  FtCostModel model(Table2Context());
  auto est = model.Estimate(p, Fig3Config(p));
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_EQ(est->dominant_path, (CollapsedPath{0, 1, 3}));
  EXPECT_NEAR(est->dominant_cost, 9.186, 0.01);
  EXPECT_EQ(est->paths_evaluated, 2u);
}

TEST(FtCostTest, OperatorCostMatchesFailureMath) {
  FtCostModel model(Table2Context());
  CollapsedOp c;
  c.runtime_cost = 3.5;
  c.materialize_cost = 0.5;
  FailureParams params = Table2Context().MakeFailureParams();
  EXPECT_DOUBLE_EQ(model.OperatorCost(c),
                   OperatorTotalRuntime(4.0, params));
}

TEST(FtCostTest, CostIncreasesWithLowerMtbf) {
  Plan p = Fig3Plan();
  FtCostContext high = Table2Context();
  high.cluster.mtbf_seconds = 3600.0;
  FtCostContext low = Table2Context();
  low.cluster.mtbf_seconds = 10.0;
  auto e_high = FtCostModel(high).Estimate(p, Fig3Config(p));
  auto e_low = FtCostModel(low).Estimate(p, Fig3Config(p));
  ASSERT_TRUE(e_high.ok());
  ASSERT_TRUE(e_low.ok());
  EXPECT_GT(e_low->dominant_cost, e_high->dominant_cost);
}

TEST(FtCostTest, CostUsesPerNodeMtbf) {
  // The paper's model tracks a single machine (§3.5, footnote 6): under
  // fine-grained recovery only the failed node's sub-plan restarts, so the
  // estimate depends on the per-node MTBF, not on the cluster size.
  Plan p = Fig3Plan();
  FtCostContext small = Table2Context();
  small.cluster = cost::MakeCluster(1, 600.0, 0.0);
  FtCostContext big = Table2Context();
  big.cluster = cost::MakeCluster(100, 600.0, 0.0);
  auto e_small = FtCostModel(small).Estimate(p, Fig3Config(p));
  auto e_big = FtCostModel(big).Estimate(p, Fig3Config(p));
  ASSERT_TRUE(e_small.ok());
  ASSERT_TRUE(e_big.ok());
  EXPECT_DOUBLE_EQ(e_big->dominant_cost, e_small->dominant_cost);
}

TEST(FtCostTest, NoFailuresMeansPlainRuntime) {
  // With an astronomically high MTBF the estimate equals RPt of the
  // dominant path.
  Plan p = Fig3Plan();
  FtCostContext ctx = Table2Context();
  ctx.cluster.mtbf_seconds = 1e15;
  FtCostModel model(ctx);
  auto est = model.Estimate(p, Fig3Config(p));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->dominant_cost, 9.0, 1e-6);
}

TEST(FtCostTest, MakeFailureParamsAppliesCostConstant) {
  FtCostContext ctx = Table2Context();
  ctx.cluster = cost::MakeCluster(10, 600.0, 2.0);
  ctx.model.cost_constant = 3.0;
  const FailureParams params = ctx.MakeFailureParams();
  EXPECT_DOUBLE_EQ(params.mtbf_cost, 600.0 * 3.0);
  EXPECT_DOUBLE_EQ(params.mttr_cost, 2.0 * 3.0);
}

TEST(FtCostTest, EstimateRejectsInvalidContext) {
  Plan p = Fig3Plan();
  FtCostContext ctx = Table2Context();
  ctx.cluster.num_nodes = 0;
  FtCostModel model(ctx);
  EXPECT_FALSE(model.Estimate(p, Fig3Config(p)).ok());
}

// Property: the dominant-path estimate is monotone under adding
// materializations only in the sense of TPt composition; here we check a
// simpler invariant — every path cost is >= its no-failure runtime.
TEST(FtCostTest, PathCostAtLeastNoFailureRuntime) {
  Plan p = Fig3Plan();
  FtCostModel model(Table2Context());
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  for (const auto& path : cp->AllPaths()) {
    double no_failure = 0.0;
    for (CollapsedId id : path) no_failure += cp->op(id).total_cost();
    EXPECT_GE(model.PathCost(*cp, path), no_failure - 1e-9);
  }
}

}  // namespace
}  // namespace xdbft::ft
