#include "ft/scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "ft/collapsed_plan.h"
#include "ft/failure_math.h"

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

Plan StarJoinPlan() {
  PlanBuilder b("star");
  const OpId fact = b.Scan("F", 1e7, 100, 8.0);
  const OpId d1 = b.Scan("D1", 1e4, 50, 0.5);
  const OpId d2 = b.Scan("D2", 1e4, 50, 0.5);
  const OpId j1 = b.Binary(OpType::kHashJoin, "j1", fact, d1, 4.0, 3.0);
  const OpId j2 = b.Binary(OpType::kHashJoin, "j2", j1, d2, 4.0, 3.0);
  b.Unary(OpType::kHashAggregate, "agg", j2, 1.0, 0.1);
  return std::move(b).Build();
}

FtCostContext MakeContext(double mtbf) {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, mtbf, 1.0);
  return ctx;
}

TEST(SchemeTest, KindNames) {
  EXPECT_STREQ(SchemeKindName(SchemeKind::kAllMat), "all-mat");
  EXPECT_STREQ(SchemeKindName(SchemeKind::kNoMatLineage),
               "no-mat (lineage)");
  EXPECT_STREQ(SchemeKindName(SchemeKind::kNoMatRestart),
               "no-mat (restart)");
  EXPECT_STREQ(SchemeKindName(SchemeKind::kCostBased), "cost-based");
  EXPECT_STREQ(SchemeKindName(SchemeKind::kWriteAheadLineage),
               "write-ahead lineage");
}

TEST(SchemeTest, AllMatMaterializesEverything) {
  auto sp = ApplyScheme(SchemeKind::kAllMat, StarJoinPlan(),
                        MakeContext(3600.0));
  ASSERT_TRUE(sp.ok()) << sp.status();
  EXPECT_EQ(sp->recovery, RecoveryMode::kFineGrained);
  EXPECT_EQ(sp->config.NumMaterialized(), 6u);
  EXPECT_GT(sp->estimated_cost, 0.0);
}

TEST(SchemeTest, NoMatLineageMaterializesOnlySink) {
  auto sp = ApplyScheme(SchemeKind::kNoMatLineage, StarJoinPlan(),
                        MakeContext(3600.0));
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->recovery, RecoveryMode::kFineGrained);
  EXPECT_EQ(sp->config.NumMaterialized(), 1u);
}

TEST(SchemeTest, NoMatRestartUsesFullRestart) {
  auto sp = ApplyScheme(SchemeKind::kNoMatRestart, StarJoinPlan(),
                        MakeContext(3600.0));
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->recovery, RecoveryMode::kFullRestart);
  EXPECT_EQ(sp->config.NumMaterialized(), 1u);
}

TEST(SchemeTest, CostBasedNeverWorseThanFixedSchemes) {
  // The cost-based estimate is the minimum over all configurations, hence
  // <= both all-mat and no-mat estimates under the same model.
  for (double mtbf : {60.0, 600.0, 3600.0, 86400.0}) {
    const Plan p = StarJoinPlan();
    const FtCostContext ctx = MakeContext(mtbf);
    auto cost_based = ApplyScheme(SchemeKind::kCostBased, p, ctx);
    auto all_mat = ApplyScheme(SchemeKind::kAllMat, p, ctx);
    auto no_mat = ApplyScheme(SchemeKind::kNoMatLineage, p, ctx);
    ASSERT_TRUE(cost_based.ok());
    ASSERT_TRUE(all_mat.ok());
    ASSERT_TRUE(no_mat.ok());
    EXPECT_LE(cost_based->estimated_cost,
              all_mat->estimated_cost + 1e-9)
        << "mtbf=" << mtbf;
    EXPECT_LE(cost_based->estimated_cost, no_mat->estimated_cost + 1e-9)
        << "mtbf=" << mtbf;
  }
}

TEST(SchemeTest, FullRestartEstimateIsQueryLevelRetryUnit) {
  // Regression: no-mat (restart) used to be priced with the fine-grained
  // dominant-path model — a single-machine failure process — while the
  // simulator restarts the whole query on ANY node's failure. The
  // estimate must be Eq. 8 applied to one query-level retry unit of
  // duration makespan with failure rate n/MTBF.
  const Plan p = StarJoinPlan();
  // MTBF low enough that the attempts percentile exceeds one attempt —
  // at a day-scale MTBF every scheme's estimate degenerates to the
  // failure-free makespan and the divergence is invisible.
  const FtCostContext ctx = MakeContext(300.0);
  auto sp = ApplyScheme(SchemeKind::kNoMatRestart, p, ctx);
  ASSERT_TRUE(sp.ok()) << sp.status();
  auto cp =
      CollapsedPlan::Create(p, sp->config, ctx.model.pipe_constant);
  ASSERT_TRUE(cp.ok());
  FailureParams q = ctx.MakeFailureParams();
  q.mtbf_cost = ctx.cluster.mtbf_seconds * ctx.model.cost_constant /
                static_cast<double>(ctx.cluster.num_nodes);
  q.success_target = ctx.model.success_target;
  EXPECT_DOUBLE_EQ(sp->estimated_cost,
                   OperatorTotalRuntime(cp->MakespanNoFailure(), q));
  // The query-level rate is n times the per-node rate, so on this
  // 10-node cluster the restart estimate must exceed the fine-grained
  // lineage estimate for the identical no-mat configuration — the
  // divergence the old shared estimate hid.
  auto lineage = ApplyScheme(SchemeKind::kNoMatLineage, p, ctx);
  ASSERT_TRUE(lineage.ok());
  EXPECT_GT(sp->estimated_cost, lineage->estimated_cost);
}

TEST(SchemeTest, FullRestartEstimateGrowsWithClusterSize) {
  // Under the old fine-grained pricing the estimate was flat in n (one
  // machine's MTBF); the query-level retry unit sees rate n/MTBF, so a
  // bigger cluster must strictly raise it.
  const Plan p = StarJoinPlan();
  double prev = 0.0;
  for (int nodes : {1, 10, 100}) {
    FtCostContext ctx;
    ctx.cluster = cost::MakeCluster(nodes, 600.0, 1.0);
    auto sp = ApplyScheme(SchemeKind::kNoMatRestart, p, ctx);
    ASSERT_TRUE(sp.ok()) << sp.status();
    EXPECT_GT(sp->estimated_cost, prev) << nodes;
    prev = sp->estimated_cost;
  }
}

TEST(SchemeTest, PlanIndexConsistentWithReturnedPlan) {
  // plan_index, plan, config and estimated_cost must all describe the
  // same winning candidate: re-running the search on just
  // candidates[plan_index] reproduces the config and the cost.
  PlanBuilder cheap("cheap");
  OpId s = cheap.Scan("R", 1e5, 64, 1.0);
  cheap.Unary(OpType::kHashAggregate, "agg", s, 1.0, 0.1);
  PlanBuilder mid("mid");
  s = mid.Scan("R", 1e5, 64, 3.0);
  mid.Unary(OpType::kHashAggregate, "agg", s, 3.0, 0.1);
  PlanBuilder costly("costly");
  s = costly.Scan("R", 1e5, 64, 5.0);
  costly.Unary(OpType::kHashAggregate, "agg", s, 5.0, 0.1);
  const std::vector<Plan> candidates = {std::move(costly).Build(),
                                        std::move(cheap).Build(),
                                        std::move(mid).Build()};
  const FtCostContext ctx = MakeContext(3600.0);
  auto sp = ApplyCostBasedScheme(candidates, ctx);
  ASSERT_TRUE(sp.ok()) << sp.status();
  ASSERT_LT(sp->plan_index, candidates.size());
  EXPECT_EQ(sp->plan_index, 1u);  // "cheap" wins
  EXPECT_EQ(sp->plan.name(), candidates[sp->plan_index].name());
  auto solo =
      ApplyScheme(SchemeKind::kCostBased, candidates[sp->plan_index], ctx);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo->plan_index, 0u);  // single-candidate entry point
  EXPECT_TRUE(solo->config == sp->config);
  EXPECT_DOUBLE_EQ(solo->estimated_cost, sp->estimated_cost);
}

TEST(SchemeTest, CostBasedAdaptsToMtbf) {
  const Plan p = StarJoinPlan();
  auto low_failure = ApplyScheme(SchemeKind::kCostBased, p,
                                 MakeContext(30 * 86400.0));
  auto high_failure = ApplyScheme(SchemeKind::kCostBased, p,
                                  MakeContext(60.0));
  ASSERT_TRUE(low_failure.ok());
  ASSERT_TRUE(high_failure.ok());
  EXPECT_GE(high_failure->config.NumMaterialized(),
            low_failure->config.NumMaterialized());
}

TEST(SchemeTest, CostBasedOverMultipleCandidates) {
  PlanBuilder cheap("cheap");
  OpId s = cheap.Scan("R", 1e5, 64, 1.0);
  cheap.Unary(OpType::kHashAggregate, "agg", s, 1.0, 0.1);
  Plan pc = std::move(cheap).Build();

  PlanBuilder costly("costly");
  s = costly.Scan("R", 1e5, 64, 5.0);
  costly.Unary(OpType::kHashAggregate, "agg", s, 5.0, 0.1);
  Plan pe = std::move(costly).Build();

  auto sp = ApplyCostBasedScheme({pe, pc}, MakeContext(3600.0));
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->plan.name(), "cheap");
}

TEST(SchemeTest, RejectsInvalidPlan) {
  Plan empty;
  EXPECT_FALSE(
      ApplyScheme(SchemeKind::kAllMat, empty, MakeContext(60.0)).ok());
}

TEST(SchemeTest, RejectsInvalidContext) {
  FtCostContext bad = MakeContext(60.0);
  bad.cluster.num_nodes = -1;
  EXPECT_FALSE(ApplyScheme(SchemeKind::kAllMat, StarJoinPlan(), bad).ok());
}

TEST(SchemeTest, EstimatesOrderedSensiblyUnderHighFailureRate) {
  // At a very low MTBF, no-mat has a (much) higher estimated runtime than
  // all-mat for this plan with cheap materializations.
  PlanBuilder b("chain");
  OpId prev = b.Scan("R", 1e6, 10, 5.0);
  for (int i = 0; i < 4; ++i) {
    prev = b.Unary(OpType::kFilter, "f" + std::to_string(i), prev, 5.0, 0.2);
  }
  Plan p = std::move(b).Build();
  const FtCostContext ctx = MakeContext(120.0);
  auto all_mat = ApplyScheme(SchemeKind::kAllMat, p, ctx);
  auto no_mat = ApplyScheme(SchemeKind::kNoMatLineage, p, ctx);
  ASSERT_TRUE(all_mat.ok());
  ASSERT_TRUE(no_mat.ok());
  EXPECT_LT(all_mat->estimated_cost, no_mat->estimated_cost);
}

// The advisor's one-shot answers: findBestFTPlan (§3.2) through
// ApplyCostBasedScheme and the five-scheme comparison.

Plan SamplePlan() {
  PlanBuilder b("sample");
  auto scan = b.Scan("T", 1e8, 64, 100.0);
  b.Constrain(scan, plan::MatConstraint::kNeverMaterialize);
  auto join = b.Unary(OpType::kHashJoin, "join", scan, 80.0, 30.0);
  auto agg = b.Unary(OpType::kHashAggregate, "agg", join, 40.0, 1.0);
  b.Unary(OpType::kSort, "sort", agg, 5.0, 0.2);
  return std::move(b).Build();
}

TEST(AdvisorTest, ChooseBestPlanReturnsCostBasedScheme) {
  auto chosen = ApplyCostBasedScheme({SamplePlan()}, MakeContext(600.0));
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_EQ(chosen->kind, SchemeKind::kCostBased);
  EXPECT_EQ(chosen->recovery, RecoveryMode::kFineGrained);
  EXPECT_GT(chosen->estimated_cost, 0.0);
  EXPECT_TRUE(chosen->config.Validate(chosen->plan).ok());
}

TEST(AdvisorTest, ChooseBestOverCandidates) {
  PlanBuilder cheap("cheap");
  auto s = cheap.Scan("T", 1e6, 8, 1.0);
  cheap.Unary(OpType::kHashAggregate, "agg", s, 1.0, 0.1);
  Plan pc = std::move(cheap).Build();
  auto chosen = ApplyCostBasedScheme({SamplePlan(), pc}, MakeContext(3600.0));
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->plan.name(), "cheap");
}

TEST(AdvisorTest, CompareSchemesListsAllFiveSorted) {
  auto cmp = CompareSchemes(SamplePlan(), MakeContext(600.0));
  ASSERT_TRUE(cmp.ok()) << cmp.status();
  ASSERT_EQ(cmp->schemes.size(), 5u);
  for (size_t i = 1; i < cmp->schemes.size(); ++i) {
    EXPECT_LE(cmp->schemes[i - 1].estimated_cost,
              cmp->schemes[i].estimated_cost);
  }
}

TEST(AdvisorTest, RecommendationIsNeverWorseThanOthers) {
  for (double mtbf : {120.0, 3600.0, 86400.0}) {
    auto cmp = CompareSchemes(SamplePlan(), MakeContext(mtbf));
    ASSERT_TRUE(cmp.ok());
    double recommended_cost = 0.0, best = 1e300;
    for (const auto& e : cmp->schemes) {
      if (e.kind == cmp->recommended) recommended_cost = e.estimated_cost;
      best = std::min(best, e.estimated_cost);
    }
    EXPECT_NEAR(recommended_cost, best, best * 1e-12) << mtbf;
  }
}

TEST(AdvisorTest, TiesPreferCostBased) {
  // With effectively no failures, no-mat and cost-based tie; the
  // recommendation must be cost-based.
  auto cmp = CompareSchemes(SamplePlan(), MakeContext(1e15));
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ(cmp->recommended, SchemeKind::kCostBased);
  // Tied estimates keep kAllSchemeKinds order.
  auto rank = [](SchemeKind kind) {
    return std::find(std::begin(kAllSchemeKinds), std::end(kAllSchemeKinds),
                     kind) -
           std::begin(kAllSchemeKinds);
  };
  int ties = 0;
  for (size_t i = 1; i < cmp->schemes.size(); ++i) {
    if (cmp->schemes[i - 1].estimated_cost !=
        cmp->schemes[i].estimated_cost) {
      continue;
    }
    ++ties;
    EXPECT_LT(rank(cmp->schemes[i - 1].kind), rank(cmp->schemes[i].kind))
        << SchemeKindName(cmp->schemes[i - 1].kind) << " before "
        << SchemeKindName(cmp->schemes[i].kind);
  }
  EXPECT_GT(ties, 0);
}

TEST(AdvisorTest, RespectsEnumerationOptions) {
  EnumerationOptions opts;
  opts.max_free_operators = 0;  // everything rejected
  opts.pruning.rule1 = opts.pruning.rule2 = false;
  EXPECT_FALSE(
      ApplyCostBasedScheme({SamplePlan()}, MakeContext(600.0), opts).ok());
}

TEST(AdvisorTest, PropagatesModelParams) {
  FtCostContext ctx = MakeContext(600.0);
  ctx.model.success_target = 0.5;
  EXPECT_DOUBLE_EQ(ctx.MakeFailureParams().success_target, 0.5);
  // The answer is priced under the caller's S, not the default 0.95.
  auto half = ApplyCostBasedScheme({SamplePlan()}, ctx);
  auto standard = ApplyCostBasedScheme({SamplePlan()}, MakeContext(600.0));
  ASSERT_TRUE(half.ok() && standard.ok());
  EXPECT_LT(half->estimated_cost, standard->estimated_cost);
}

TEST(AdvisorTest, RejectsInvalidInput) {
  EXPECT_FALSE(ApplyCostBasedScheme({Plan{}}, MakeContext(600.0)).ok());
  EXPECT_FALSE(CompareSchemes(Plan{}, MakeContext(600.0)).ok());
}

}  // namespace
}  // namespace xdbft::ft
