#include "optimizer/join_enumerator.h"

#include <gtest/gtest.h>

#include <set>

#include "tpch/q5_join_graph.h"

namespace xdbft::optimizer {
namespace {

JoinGraph ChainGraph(int n) {
  JoinGraph g;
  for (int i = 0; i < n; ++i) {
    g.AddRelation({"R" + std::to_string(i),
                   100.0 * (i + 1), 1.0 * (i + 1), 10, 50});
  }
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(g.AddEdge(i, i + 1, 0.01).ok());
  }
  return g;
}

TEST(JoinTreeArenaTest, LeafAndJoin) {
  JoinTreeArena arena;
  const int a = arena.Leaf(0);
  const int b = arena.Leaf(1);
  const int j = arena.Join(a, b);
  EXPECT_TRUE(arena.node(a).is_leaf());
  EXPECT_FALSE(arena.node(j).is_leaf());
  EXPECT_EQ(arena.Relations(j), RelSet{0b11});
}

TEST(JoinTreeArenaTest, ToStringShowsStructure) {
  JoinGraph g = ChainGraph(3);
  JoinTreeArena arena;
  const int t =
      arena.Join(arena.Join(arena.Leaf(0), arena.Leaf(1)), arena.Leaf(2));
  EXPECT_EQ(arena.ToString(t, g), "((R0 R1) R2)");
}

// Ordered connected join trees over a chain of n relations:
// Catalan(n-1) * 2^(n-1).
class ChainTreeCount : public ::testing::TestWithParam<std::pair<int, size_t>> {};

TEST_P(ChainTreeCount, MatchesCatalanFormula) {
  const auto [n, expected] = GetParam();
  JoinGraph g = ChainGraph(n);
  JoinTreeArena arena;
  auto trees = EnumerateAllJoinTrees(g, &arena);
  ASSERT_TRUE(trees.ok()) << trees.status();
  EXPECT_EQ(trees->size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChainTreeCount,
    ::testing::Values(std::make_pair(2, size_t{2}),      // C1*2 = 2
                      std::make_pair(3, size_t{8}),      // C2*4 = 8
                      std::make_pair(4, size_t{40}),     // C3*8 = 40
                      std::make_pair(5, size_t{224}),    // C4*16 = 224
                      std::make_pair(6, size_t{1344}))); // C5*32 = 1344

TEST(EnumerateAllTest, Q5Yields1344JoinOrders) {
  // Paper §5.5: 1344 equivalent join orders of TPC-H Q5.
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto g = tpch::MakeQ5JoinGraph(cfg);
  ASSERT_TRUE(g.ok());
  JoinTreeArena arena;
  auto trees = EnumerateAllJoinTrees(*g, &arena);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 1344u);
}

TEST(EnumerateAllTest, EveryTreeCoversAllRelations) {
  JoinGraph g = ChainGraph(4);
  JoinTreeArena arena;
  auto trees = EnumerateAllJoinTrees(g, &arena);
  ASSERT_TRUE(trees.ok());
  for (int root : *trees) {
    EXPECT_EQ(arena.Relations(root), g.AllRels());
  }
}

TEST(EnumerateAllTest, TreesAreDistinct) {
  JoinGraph g = ChainGraph(4);
  JoinTreeArena arena;
  auto trees = EnumerateAllJoinTrees(g, &arena);
  ASSERT_TRUE(trees.ok());
  std::set<std::string> shapes;
  for (int root : *trees) shapes.insert(arena.ToString(root, g));
  EXPECT_EQ(shapes.size(), trees->size());
}

TEST(EnumerateAllTest, RejectsNullArena) {
  JoinGraph g = ChainGraph(3);
  EXPECT_FALSE(EnumerateAllJoinTrees(g, nullptr).ok());
}

TEST(TreeCostTest, LeafCostIsScanCost) {
  JoinGraph g = ChainGraph(3);
  JoinTreeArena arena;
  EXPECT_DOUBLE_EQ(TreeCost(arena, arena.Leaf(2), g, {}), 3.0);
}

TEST(TreeCostTest, JoinAddsOperatorCost) {
  JoinGraph g = ChainGraph(2);
  JoinTreeArena arena;
  const int t = arena.Join(arena.Leaf(0), arena.Leaf(1));
  const double cost = TreeCost(arena, t, g, {});
  EXPECT_GT(cost, 1.0 + 2.0);
}

TEST(TreeCostTest, OrderInsensitiveForSameShape) {
  // Build/probe side selection is by cardinality, so (A B) and (B A) cost
  // the same.
  JoinGraph g = ChainGraph(2);
  JoinTreeArena arena;
  const int t1 = arena.Join(arena.Leaf(0), arena.Leaf(1));
  const int t2 = arena.Join(arena.Leaf(1), arena.Leaf(0));
  EXPECT_DOUBLE_EQ(TreeCost(arena, t1, g, {}), TreeCost(arena, t2, g, {}));
}

TEST(TopKTest, ReturnsSortedByCost) {
  JoinGraph g = ChainGraph(5);
  JoinTreeArena arena;
  auto roots = EnumerateTopKJoinTrees(g, 5, {}, &arena);
  ASSERT_TRUE(roots.ok()) << roots.status();
  ASSERT_LE(roots->size(), 5u);
  ASSERT_GE(roots->size(), 2u);
  double prev = 0.0;
  for (int root : *roots) {
    const double cost = TreeCost(arena, root, g, {});
    EXPECT_GE(cost, prev - 1e-9);
    prev = cost;
  }
}

TEST(TopKTest, Top1IsGlobalOptimum) {
  JoinGraph g = ChainGraph(5);
  JoinTreeArena arena_all;
  auto all = EnumerateAllJoinTrees(g, &arena_all);
  ASSERT_TRUE(all.ok());
  double best = 1e300;
  for (int root : *all) {
    best = std::min(best, TreeCost(arena_all, root, g, {}));
  }
  JoinTreeArena arena_dp;
  auto top = EnumerateTopKJoinTrees(g, 1, {}, &arena_dp);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_NEAR(TreeCost(arena_dp, (*top)[0], g, {}), best, 1e-9 * best);
}

TEST(TopKTest, RejectsBadArguments) {
  JoinGraph g = ChainGraph(3);
  JoinTreeArena arena;
  EXPECT_FALSE(EnumerateTopKJoinTrees(g, 0, {}, &arena).ok());
  EXPECT_FALSE(EnumerateTopKJoinTrees(g, 3, {}, nullptr).ok());
}

TEST(EmitPlanTest, ProducesValidPlanWithBoundScans) {
  JoinGraph g = ChainGraph(4);
  JoinTreeArena arena;
  auto trees = EnumerateAllJoinTrees(g, &arena);
  ASSERT_TRUE(trees.ok());
  auto plan = EmitPlan(arena, (*trees)[0], g, {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->Validate().ok());
  // 4 scans + 3 joins + 1 aggregation sink.
  EXPECT_EQ(plan->num_nodes(), 8u);
  int scans = 0, joins = 0;
  for (const auto& n : plan->nodes()) {
    if (n.type == plan::OpType::kTableScan) {
      ++scans;
      EXPECT_FALSE(n.is_free());
    }
    if (n.type == plan::OpType::kHashJoin) {
      ++joins;
      EXPECT_TRUE(n.is_free());
    }
  }
  EXPECT_EQ(scans, 4);
  EXPECT_EQ(joins, 3);
}

TEST(EmitPlanTest, NoAggregateSinkOption) {
  JoinGraph g = ChainGraph(3);
  JoinTreeArena arena;
  const int t = arena.Join(arena.Join(arena.Leaf(0), arena.Leaf(1)),
                           arena.Leaf(2));
  PlanEmissionOptions opts;
  opts.add_aggregate_sink = false;
  auto plan = EmitPlan(arena, t, g, {}, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_nodes(), 5u);
  // The top join is the sink.
  EXPECT_EQ(plan->Sinks().size(), 1u);
  EXPECT_EQ(plan->node(plan->Sinks()[0]).type, plan::OpType::kHashJoin);
}

TEST(EmitPlanTest, Q5PlanMatchesHandBuiltCardinalities) {
  // Emitting the Fig. 9 chain order from the join graph must reproduce the
  // hand-built Q5 cardinalities (same catalog, same selectivities).
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto g = tpch::MakeQ5JoinGraph(cfg);
  ASSERT_TRUE(g.ok());
  JoinTreeArena arena;
  // ((((R N) C) O) L) S — relations were added in this order (0..5).
  int t = arena.Leaf(0);
  for (int i = 1; i < 6; ++i) t = arena.Join(t, arena.Leaf(i));
  auto plan = EmitPlan(arena, t, *g, tpch::MakePhysicalCostParams(cfg));
  ASSERT_TRUE(plan.ok());
  auto q5 = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  ASSERT_TRUE(q5.ok());
  // Compare the final join cardinality: both must be ~686k at SF=100.
  double emitted_final = 0.0, built_final = 0.0;
  for (const auto& n : plan->nodes()) {
    if (n.type == plan::OpType::kHashJoin) emitted_final = n.output_rows;
  }
  for (const auto& n : q5->nodes()) {
    if (n.type == plan::OpType::kHashJoin) built_final = n.output_rows;
  }
  EXPECT_NEAR(emitted_final, built_final, built_final * 0.01);
}

// tr(o), tm(o) and output rows of every operator of the cheapest Q5 join
// tree, printed with %a so each double is pinned exactly.
struct GoldenCosts {
  double runtime_cost;
  double materialize_cost;
  double output_rows;
};

void ExpectCheapestQ5TreeCosts(const tpch::TpchPlanConfig& cfg,
                               const PhysicalCostParams& params,
                               const std::vector<GoldenCosts>& golden) {
  auto g = tpch::MakeQ5JoinGraph(cfg);
  ASSERT_TRUE(g.ok());
  JoinTreeArena arena;
  auto roots = EnumerateTopKJoinTrees(*g, 1, params, &arena);
  ASSERT_TRUE(roots.ok());
  EXPECT_EQ(arena.ToString(roots->front(), *g),
            "(((SUPPLIER LINEITEM) ORDERS) (CUSTOMER (NATION REGION)))");
  auto plan = EmitPlan(arena, roots->front(), *g, params);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->num_nodes(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    const plan::PlanNode& n = plan->nodes()[i];
    EXPECT_EQ(n.runtime_cost, golden[i].runtime_cost) << n.label;
    EXPECT_EQ(n.materialize_cost, golden[i].materialize_cost) << n.label;
    EXPECT_EQ(n.output_rows, golden[i].output_rows) << n.label;
  }
}

TEST(EmitPlanTest, GoldenCostsOfCheapestQ5TreeAtDefaultConfig) {
  const tpch::TpchPlanConfig cfg;
  ExpectCheapestQ5TreeCosts(cfg, tpch::MakePhysicalCostParams(cfg), {
      {{0x1.47ae147ae147bp-9, 0x1.23cb3f9cb3f9dp-3, 0x1.388p+13},
       {0x1.8013e81450efep+0, 0x1.4d62ee6666666p+5, 0x1.6e48fcp+22},
       {0x1.e1d8cacaf844ap+2, 0x1.c3d2999999999p-1, 0x1.d4d84ccccccccp+17},
       {0x1.8p-2, 0x1.a2a4e765bc2d3p+0, 0x1.a286db6db6db6p+17},
       {0x1.7feaa879c3afp-2, 0x1.ab241d41d41d4p-3, 0x1.0be9507507507p+15},
       {0x1.3333333333333p-5, 0x1.9c4d86fb586fcp+0, 0x1.24f8p+17},
       {0x1.a36e2eb1c432dp-18, 0x1.9b1d7a91d7a92p-5, 0x1.9p+4},
       {0x1.4f8b588e368f1p-20, 0x1.99a8253c8253dp-5, 0x1p+0},
       {0x1.0d226f07666d6p-15, 0x1.99ee72cfe72dp-5, 0x1.4p+2},
       {0x1.8625bce155a94p-3, 0x1.96504a7904a79p-2, 0x1.d4cp+14},
       {0x1.b6b2005dc52f9p-5, 0x1.49b8p-3, 0x1.aca880bb3ee71p+12},
       {0x1.c17b102f2e71ep-9, 0x1.9a0634c0634c1p-5, 0x1p+3}}
  });
}

TEST(EmitPlanTest, GoldenCostsOfCheapestQ5TreeAtFig13Store) {
  // Fig. 13's operating point, including its MySQL-like aggregation rate.
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 2000.0;
  cfg.storage_bandwidth_bps = 128.0 * 1024 * 1024;
  auto params = tpch::MakePhysicalCostParams(cfg);
  params.agg_rows_per_sec = 20e3;
  ExpectCheapestQ5TreeCosts(cfg, params, {
      {{0x1.4p+2, 0x1.7e450cccccccdp+4, 0x1.312dp+24},
       {0x1.771370a3d70a4p+11, 0x1.4f58781ce6666p+13, 0x1.65b34618p+33},
       {0x1.d68db60a36731p+13, 0x1.ad5720e999999p+7, 0x1.c9db3afffffffp+28},
       {0x1.77p+9, 0x1.98c47f15f15f1p+8, 0x1.98b7b24924924p+28},
       {0x1.76eb2886e918dp+9, 0x1.4770b51d41d4p+5, 0x1.05a1d89249248p+26},
       {0x1.2cp+6, 0x1.9261a04cccccdp+8, 0x1.1e1a3p+28},
       {0x1.a36e2eb1c432dp-18, 0x1.99cb99999999ap-5, 0x1.9p+4},
       {0x1.4f8b588e368f1p-20, 0x1.999b79999999ap-5, 0x1p+0},
       {0x1.0d226f07666d6p-15, 0x1.99a489999999ap-5, 0x1.4p+2},
       {0x1.7d00001bf6476p+8, 0x1.65d3ef3333333p+6, 0x1.c9c38p+25},
       {0x1.ac69d45b92906p+6, 0x1.caa807ccccccbp+4, 0x1.a29c8db6db6dap+23},
       {0x1.12575ca0cc19p+6, 0x1.99a799999999ap-5, 0x1p+3}}
  });
}

}  // namespace
}  // namespace xdbft::optimizer
