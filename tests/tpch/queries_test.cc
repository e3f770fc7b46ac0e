#include "tpch/queries.h"

#include <gtest/gtest.h>

#include "ft/collapsed_plan.h"
#include "ft/mat_config.h"

namespace xdbft::tpch {
namespace {

TpchPlanConfig Sf100Config() {
  TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  return cfg;
}

double Baseline(const plan::Plan& p) {
  auto cp = ft::CollapsedPlan::Create(p, ft::MaterializationConfig::NoMat(p));
  return cp->MakespanNoFailure();
}

double TotalRuntime(const plan::Plan& p) { return p.TotalRuntimeCost(); }

double FreeMatCost(const plan::Plan& p) {
  double mat = 0.0;
  for (const auto& n : p.nodes()) {
    if (n.is_free()) mat += n.materialize_cost;
  }
  return mat;
}

// tr(o), tm(o) and output rows of one operator, printed with %a so each
// double is pinned exactly: any change to the cost formulas or to the order
// of their floating-point operations fails the comparison.
struct GoldenCosts {
  double runtime_cost;
  double materialize_cost;
  double output_rows;
};

// Checks every operator of each of AllQueries() under `cfg`, in order.
void ExpectGoldenCosts(const TpchPlanConfig& cfg,
                       const std::vector<std::vector<GoldenCosts>>& golden) {
  ASSERT_EQ(golden.size(), AllQueries().size());
  for (size_t q = 0; q < AllQueries().size(); ++q) {
    auto p = BuildQuery(AllQueries()[q], cfg);
    ASSERT_TRUE(p.ok()) << p.status();
    ASSERT_EQ(p->num_nodes(), golden[q].size()) << p->name();
    for (size_t i = 0; i < golden[q].size(); ++i) {
      const plan::PlanNode& n = p->nodes()[i];
      EXPECT_EQ(n.runtime_cost, golden[q][i].runtime_cost) << n.label;
      EXPECT_EQ(n.materialize_cost, golden[q][i].materialize_cost) << n.label;
      EXPECT_EQ(n.output_rows, golden[q][i].output_rows) << n.label;
    }
  }
}

TEST(TpchQueriesTest, AllQueriesBuildAndValidate) {
  for (TpchQuery q : AllQueries()) {
    auto p = BuildQuery(q, Sf100Config());
    ASSERT_TRUE(p.ok()) << TpchQueryName(q) << ": " << p.status();
    EXPECT_TRUE(p->Validate().ok()) << TpchQueryName(q);
    EXPECT_GT(Baseline(*p), 0.0) << TpchQueryName(q);
  }
}

TEST(TpchQueriesTest, Q1HasNoFreeOperator) {
  // Paper §5.2: "Q1 is an exception since it has no free operator that can
  // be selected for materialization."
  auto p = BuildQuery(TpchQuery::kQ1, Sf100Config());
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(ft::EnumerableOperators(*p).empty());
}

TEST(TpchQueriesTest, Q5HasFiveFreeJoins) {
  // Paper Fig. 9: the 5 join operators are free -> 2^5 = 32 configs.
  auto p = BuildQuery(TpchQuery::kQ5, Sf100Config());
  ASSERT_TRUE(p.ok());
  const auto free_ops = ft::EnumerableOperators(*p);
  ASSERT_EQ(free_ops.size(), 5u);
  for (plan::OpId id : free_ops) {
    EXPECT_EQ(p->node(id).type, plan::OpType::kHashJoin);
  }
}

TEST(TpchQueriesTest, Q3IsThreeWayJoin) {
  auto p = BuildQuery(TpchQuery::kQ3, Sf100Config());
  ASSERT_TRUE(p.ok());
  int joins = 0;
  for (const auto& n : p->nodes()) {
    if (n.type == plan::OpType::kHashJoin) ++joins;
  }
  EXPECT_EQ(joins, 2);  // 3 relations -> 2 join operators
}

TEST(TpchQueriesTest, Q2CIsDagStructured) {
  // Q2C's CTE feeds two outer queries: some operator has two consumers and
  // the plan has two sinks.
  auto p = BuildQuery(TpchQuery::kQ2C, Sf100Config());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Sinks().size(), 2u);
  bool has_shared_op = false;
  for (const auto& n : p->nodes()) {
    if (p->Consumers(n.id).size() >= 2) has_shared_op = true;
  }
  EXPECT_TRUE(has_shared_op);
}

TEST(TpchQueriesTest, Q1CAggregationInMiddleIsCheapToMaterialize) {
  // The inner aggregation must be the cheapest free materialization point
  // by a wide margin (the paper's natural checkpoint).
  auto p = BuildQuery(TpchQuery::kQ1C, Sf100Config());
  ASSERT_TRUE(p.ok());
  double min_mat = 1e100, max_mat = 0.0;
  for (plan::OpId id : ft::EnumerableOperators(*p)) {
    min_mat = std::min(min_mat, p->node(id).materialize_cost);
    max_mat = std::max(max_mat, p->node(id).materialize_cost);
  }
  EXPECT_LT(min_mat * 100.0, max_mat);
}

TEST(TpchQueriesTest, Q5Sf100BaselineNearPaper) {
  // Paper §5.3: Q5 over SF=100 ran 905.33s without failures; our
  // calibration lands within 5%.
  auto p = BuildQuery(TpchQuery::kQ5, Sf100Config());
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(Baseline(*p), 905.33, 905.33 * 0.05);
}

TEST(TpchQueriesTest, Q5MaterializationShareNearPaper) {
  // Paper §5.3: total materialization costs of Q5's operators are ~34% of
  // the total runtime costs.
  auto p = BuildQuery(TpchQuery::kQ5, Sf100Config());
  ASSERT_TRUE(p.ok());
  const double ratio = FreeMatCost(*p) / TotalRuntime(*p);
  EXPECT_GT(ratio, 0.25);
  EXPECT_LT(ratio, 0.45);
}

TEST(TpchQueriesTest, Q3MaterializationShareModerate) {
  // Paper §5.2 (high MTBF): Q3/Q5 have moderate materialization costs
  // (~20-30% of runtime).
  auto p = BuildQuery(TpchQuery::kQ3, Sf100Config());
  ASSERT_TRUE(p.ok());
  const double ratio = FreeMatCost(*p) / TotalRuntime(*p);
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.35);
}

TEST(TpchQueriesTest, ComplexQueriesHaveHighMaterializationShare) {
  // Paper §5.2: Q1C and Q2C have materialization costs of ~60-100% of the
  // runtime costs under all-mat.
  for (TpchQuery q : {TpchQuery::kQ1C, TpchQuery::kQ2C}) {
    auto p = BuildQuery(q, Sf100Config());
    ASSERT_TRUE(p.ok());
    const double ratio = FreeMatCost(*p) / TotalRuntime(*p);
    EXPECT_GT(ratio, 0.5) << TpchQueryName(q);
    EXPECT_LT(ratio, 1.2) << TpchQueryName(q);
  }
}

TEST(TpchQueriesTest, RuntimeScalesWithScaleFactor) {
  TpchPlanConfig small = Sf100Config();
  small.scale_factor = 1.0;
  for (TpchQuery q : AllQueries()) {
    auto p1 = BuildQuery(q, small);
    auto p100 = BuildQuery(q, Sf100Config());
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p100.ok());
    EXPECT_GT(Baseline(*p100), 20.0 * Baseline(*p1)) << TpchQueryName(q);
  }
}

TEST(TpchQueriesTest, RuntimeShrinksWithMoreNodes) {
  TpchPlanConfig wide = Sf100Config();
  wide.num_nodes = 100;
  auto p10 = BuildQuery(TpchQuery::kQ5, Sf100Config());
  auto p100 = BuildQuery(TpchQuery::kQ5, wide);
  ASSERT_TRUE(p10.ok());
  ASSERT_TRUE(p100.ok());
  EXPECT_LT(Baseline(*p100), Baseline(*p10) / 5.0);
}

TEST(TpchQueriesTest, ConfigValidation) {
  TpchPlanConfig cfg;
  cfg.scale_factor = 0.0;
  EXPECT_FALSE(BuildQuery(TpchQuery::kQ1, cfg).ok());
  cfg = TpchPlanConfig{};
  cfg.num_nodes = 0;
  EXPECT_FALSE(BuildQuery(TpchQuery::kQ1, cfg).ok());
  cfg = TpchPlanConfig{};
  cfg.q5_order_selectivity = 2.0;
  EXPECT_FALSE(BuildQuery(TpchQuery::kQ5, cfg).ok());
}

TEST(TpchQueriesTest, GoldenCostsAtDefaultConfig) {
  const std::vector<std::vector<GoldenCosts>> golden = {
      // Q1
      {{0x1.8013e81450efep+0, 0x1.46ba0a6666666p+5, 0x1.66f59accccccdp+22},
       {0x1.78656dad8284bp+1, 0x1.99df6b0df6b0ep-5, 0x1p+2}},
      // Q3
      {{0x1.47ae147ae147bp-6, 0x0p+0, 0x1.d4cp+14},
       {0x1.999999999999ap-5, 0x0p+0, 0x1.5f9p+19},
       {0x1.47ae147ae147bp-4, 0x0p+0, 0x1.8b9680ccccccdp+21},
       {0x1.b333333333333p+0, 0x1.999999999999ap-2, 0x1.194p+17},
       {0x1.ccccccccccccdp+0, 0x1.3333333333333p-1, 0x1.2fcp+18},
       {0x1p+1, 0x1p-2, 0x1.116p+17},
       {0x1.eb851eb851eb8p-4, 0x1.0624dd2f1a9fcp-10, 0x1.4p+3}},
      // Q5
      {{0x1.47ae147ae147bp-7, 0x0p+0, 0x1p+0},
       {0x1.47ae147ae147bp-7, 0x0p+0, 0x1.9p+4},
       {0x1.47ae147ae147bp-6, 0x0p+0, 0x1.24f8p+17},
       {0x1.999999999999ap-5, 0x0p+0, 0x1.a286db6db6db6p+17},
       {0x1.47ae147ae147bp-4, 0x0p+0, 0x1.6e48fcp+22},
       {0x1.47ae147ae147bp-7, 0x0p+0, 0x1.388p+13},
       {0x1.999999999999ap-4, 0x1.47ae147ae147bp-7, 0x1.4p+2},
       {0x1.199999999999ap+0, 0x1.3333333333333p-1, 0x1.d4cp+14},
       {0x1.3333333333333p+1, 0x1.199999999999ap+0, 0x1.4ed2492492492p+15},
       {0x1.3333333333333p+1, 0x1.8p-1, 0x1.4ed2492492492p+17},
       {0x1.1333333333333p+1, 0x1.3333333333333p-1, 0x1.ac92492492492p+12},
       {0x1.e666666666667p-1, 0x1.3333333333333p-2, 0x1.4p+2}},
      // Q1C
      {{0x1.8013e81450efep+0, 0x1.46ba0a6666666p+5, 0x1.66f59accccccdp+22},
       {0x1.78656dad8284bp+1, 0x1.99b0df6b0df6bp-5, 0x1p+2},
       {0x1.8013e81450efep+0, 0x1.46ba0a6666666p+5, 0x1.66f59accccccdp+22},
       {0x1.dd065054ba7adp+2, 0x1.2f81f9999999ap+3, 0x1.f225d1999999ap+19},
       {0x1.052c41a76a3cbp-1, 0x1.99c8253c8253dp-5, 0x1p+2}},
      // Q2C
      {{0x1.999999999999ap-5, 0x1.f44129e4129e4p-4, 0x1.f4p+12},
       {0x1.999999999999ap-3, 0x1.ad561bed61bedp+2, 0x1.86ap+19},
       {0x1.47ae147ae147bp-9, 0x1.23cb3f9cb3f9dp-3, 0x1.388p+13},
       {0x1.a36e2eb1c432dp-18, 0x1.9b1d7a91d7a92p-5, 0x1.9p+4},
       {0x1.01807a5578493p+0, 0x1.94634c0634c07p-1, 0x1.f4p+14},
       {0x1.7d33791ae5a63p-5, 0x1.a753c8253c826p-1, 0x1.f4p+14},
       {0x1.61f671529a486p-5, 0x1.b0cc0634c0635p-1, 0x1.f4p+14},
       {0x1.0624dd2f1a9fcp-6, 0x1.0967f3967f397p-4, 0x1.f4p+12},
       {0x1.999999999999ap-5, 0x1.6086fb586fb58p-4, 0x1.f4p+11},
       {0x1.807a5578492e9p-7, 0x1.8a31a6031a604p-4, 0x1.f4p+11},
       {0x1.999999999999ap-3, 0x1.ad561bed61bedp+2, 0x1.86ap+19},
       {0x1.00719881facfdp+0, 0x1.b0129e4129e42p-4, 0x1.f4p+11},
       {0x1.0624dd2f1a9fcp-9, 0x1.a4f6b0df6b0ep-5, 0x1.9p+6},
       {0x1.999999999999ap-5, 0x1.6086fb586fb58p-4, 0x1.f4p+11},
       {0x1.807a5578492e9p-7, 0x1.8a31a6031a604p-4, 0x1.f4p+11},
       {0x1.999999999999ap-3, 0x1.ad561bed61bedp+2, 0x1.86ap+19},
       {0x1.00719881facfdp+0, 0x1.b0129e4129e42p-4, 0x1.f4p+11},
       {0x1.0624dd2f1a9fcp-9, 0x1.a4f6b0df6b0ep-5, 0x1.9p+6}},
  };
  ExpectGoldenCosts(TpchPlanConfig{}, golden);
}

TEST(TpchQueriesTest, GoldenCostsAtFig13Store) {
  // Fig. 13's operating point: SF 2000 on a 128 MiB/s store.
  TpchPlanConfig cfg;
  cfg.scale_factor = 2000.0;
  cfg.storage_bandwidth_bps = 128.0 * 1024 * 1024;
  const std::vector<std::vector<GoldenCosts>> golden = {
      // Q1
      {{0x1.771370a3d70a4p+11, 0x1.48a381ffa6666p+13, 0x1.5e8bd92cp+33},
       {0x1.6f930d1b71759p+12, 0x1.99a299999999ap-5, 0x1p+2}},
      // Q3
      {{0x1.4p+5, 0x0p+0, 0x1.c9c38p+25},
       {0x1.9p+6, 0x0p+0, 0x1.5752ap+30},
       {0x1.4p+7, 0x0p+0, 0x1.8250f9c8p+32},
       {0x1.a9p+11, 0x1.9c8p+6, 0x1.12a88p+28},
       {0x1.c2p+11, 0x1.356p+7, 0x1.28a18p+29},
       {0x1.f4p+11, 0x1.01dp+6, 0x1.0af7cp+28},
       {0x1.ep+7, 0x1.08p-2, 0x1.4p+3}},
      // Q5
      {{0x1.47ae147ae147bp-7, 0x0p+0, 0x1p+0},
       {0x1.47ae147ae147bp-7, 0x0p+0, 0x1.9p+4},
       {0x1.4p+5, 0x0p+0, 0x1.1e1a3p+28},
       {0x1.9p+6, 0x0p+0, 0x1.98b7b24924924p+28},
       {0x1.4p+7, 0x0p+0, 0x1.65b34618p+33},
       {0x1.4p+4, 0x0p+0, 0x1.312dp+24},
       {0x1.999999999999ap-4, 0x1.47ae147ae147bp-7, 0x1.4p+2},
       {0x1.13p+11, 0x1.356p+7, 0x1.c9c38p+25},
       {0x1.2cp+12, 0x1.1b98p+8, 0x1.46f95b6db6db6p+26},
       {0x1.2cp+12, 0x1.82b8p+7, 0x1.46f95b6db6db6p+28},
       {0x1.0ccp+12, 0x1.356p+7, 0x1.a286db6db6db6p+23},
       {0x1.dbp+10, 0x1.3333333333333p-2, 0x1.4p+2}},
      // Q1C
      {{0x1.771370a3d70a4p+11, 0x1.48a381ffa6666p+13, 0x1.5e8bd92cp+33},
       {0x1.6f930d1b71759p+12, 0x1.999c99999999ap-5, 0x1p+2},
       {0x1.771370a3d70a4p+11, 0x1.48a381ffa6666p+13, 0x1.5e8bd92cp+33},
       {0x1.d1d824fd571ffp+13, 0x1.300d2ec79999bp+11, 0x1.e678eeb000001p+30},
       {0x1.fe1a703afb7eap+9, 0x1.999f99999999ap-5, 0x1p+2}},
      // Q2C
      {{0x1.9p+6, 0x1.2a58acccccccdp+4, 0x1.e848p+23},
       {0x1.9p+8, 0x1.ad2a7b3333333p+10, 0x1.7d784p+30},
       {0x1.4p+2, 0x1.7e450cccccccdp+4, 0x1.312dp+24},
       {0x1.a36e2eb1c432dp-18, 0x1.99cb99999999ap-5, 0x1.9p+4},
       {0x1.f6eeeeeeeeeefp+10, 0x1.7d91d9999999ap+7, 0x1.e848p+25},
       {0x1.7444444444445p+6, 0x1.90a4a9999999ap+7, 0x1.e848p+25},
       {0x1.59999bc8d72d3p+6, 0x1.9a2e11999999ap+7, 0x1.e848p+25},
       {0x1p+5, 0x1.eeae666666666p+1, 0x1.e848p+23},
       {0x1.9p+6, 0x1.2b2579999999ap+3, 0x1.e848p+22},
       {0x1.7777777777778p+4, 0x1.7f11d9999999ap+3, 0x1.e848p+22},
       {0x1.9p+8, 0x1.ad2a7b3333333p+10, 0x1.7d784p+30},
       {0x1.f4ddddddddddep+10, 0x1.cb5d19999999ap+3, 0x1.e848p+22},
       {0x1p+2, 0x1.9b1099999999ap-5, 0x1.9p+6},
       {0x1.9p+6, 0x1.2b2579999999ap+3, 0x1.e848p+22},
       {0x1.7777777777778p+4, 0x1.7f11d9999999ap+3, 0x1.e848p+22},
       {0x1.9p+8, 0x1.ad2a7b3333333p+10, 0x1.7d784p+30},
       {0x1.f4ddddddddddep+10, 0x1.cb5d19999999ap+3, 0x1.e848p+22},
       {0x1p+2, 0x1.9b1099999999ap-5, 0x1.9p+6}},
  };
  ExpectGoldenCosts(cfg, golden);
}

TEST(TpchQueriesTest, QueryNames) {
  EXPECT_STREQ(TpchQueryName(TpchQuery::kQ1), "Q1");
  EXPECT_STREQ(TpchQueryName(TpchQuery::kQ2C), "Q2C");
  EXPECT_EQ(AllQueries().size(), 5u);
}

}  // namespace
}  // namespace xdbft::tpch
