#include "ft/greedy.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ft/enumerator.h"
#include "tpch/queries.h"

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

FtCostContext Ctx(double mtbf) {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, mtbf, 1.0);
  return ctx;
}

TEST(GreedyTest, MatchesExhaustiveOnTpchQ5) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  ASSERT_TRUE(plan.ok());
  for (double mtbf : {600.0, 3600.0, 86400.0}) {
    const FtCostContext ctx = Ctx(mtbf);
    FtPlanEnumerator exhaustive(ctx);
    auto best = exhaustive.FindBest(*plan);
    ASSERT_TRUE(best.ok());
    auto greedy = GreedyMaterialization(*plan, ctx);
    ASSERT_TRUE(greedy.ok()) << greedy.status();
    EXPECT_NEAR(greedy->estimated_cost, best->estimated_cost,
                best->estimated_cost * 1e-9)
        << "mtbf=" << mtbf;
  }
}

TEST(GreedyTest, NearOptimalOnRandomChains) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    PlanBuilder b("rand");
    OpId prev = b.Scan("src", 1e5, 64, rng.NextDouble() * 10.0);
    b.plan().mutable_node(prev).materialize_cost = rng.NextDouble() * 5.0;
    const int length = static_cast<int>(rng.NextInt(3, 8));
    for (int i = 0; i < length; ++i) {
      prev = b.Unary(OpType::kFilter, "op" + std::to_string(i), prev,
                     rng.NextDouble() * 10.0, rng.NextDouble() * 5.0);
    }
    Plan p = std::move(b).Build();
    const FtCostContext ctx = Ctx(5.0 + rng.NextDouble() * 200.0);

    EnumerationOptions no_pruning;
    no_pruning.pruning.rule1 = no_pruning.pruning.rule2 = false;
    no_pruning.pruning.rule3 = false;
    FtPlanEnumerator exhaustive(ctx, no_pruning);
    auto best = exhaustive.FindBest(p);
    auto greedy = GreedyMaterialization(p, ctx);
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(greedy.ok());
    // Greedy can get stuck in a local optimum; stay within 10%.
    EXPECT_LE(greedy->estimated_cost, best->estimated_cost * 1.10)
        << "trial=" << trial;
    EXPECT_GE(greedy->estimated_cost,
              best->estimated_cost * (1.0 - 1e-9));
  }
}

TEST(GreedyTest, HandlesPlansTooWideForEnumeration) {
  // 40 free operators: 2^40 configurations is unenumerable; greedy is
  // O(f^2) model calls.
  PlanBuilder b("wide");
  OpId prev = b.Scan("src", 1e6, 64, 5.0);
  b.Constrain(prev, plan::MatConstraint::kNeverMaterialize);
  for (int i = 0; i < 40; ++i) {
    prev = b.Unary(OpType::kMapUdf, "s" + std::to_string(i), prev, 20.0,
                   (i % 7 == 3) ? 0.5 : 30.0);
  }
  Plan p = std::move(b).Build();
  const FtCostContext ctx = Ctx(600.0);
  // Greedy is the only path for such plans: the enumerator refuses them
  // at its default max_free_operators guard (24).
  const auto exhaustive = FtPlanEnumerator(ctx).FindBest(p);
  EXPECT_TRUE(exhaustive.status().IsInvalidArgument()) << exhaustive.status();
  auto greedy = GreedyMaterialization(p, ctx);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  // The climber must have found the cheap checkpoints.
  EXPECT_GT(greedy->steps, 2);
  FtCostModel model(ctx);
  auto no_mat =
      model.Estimate(p, MaterializationConfig::NoMat(p));
  ASSERT_TRUE(no_mat.ok());
  EXPECT_LT(greedy->estimated_cost, no_mat->dominant_cost * 0.5);
}

TEST(GreedyTest, NoFailureRegimeStaysAtNoMat) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  auto greedy = GreedyMaterialization(*plan, Ctx(1e15));
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->steps, 0);
  EXPECT_TRUE(greedy->config ==
              MaterializationConfig::NoMat(*plan));
}

TEST(GreedyTest, RejectsInvalidInput) {
  EXPECT_FALSE(GreedyMaterialization(Plan{}, Ctx(600.0)).ok());
}

}  // namespace
}  // namespace xdbft::ft
