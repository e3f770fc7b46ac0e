// Property tests over randomly generated DAG plans: structural invariants
// of collapsed-plan construction, enumeration consistency, and
// model-vs-simulator sanity. These are the "does it hold for plans we did
// not hand-craft" guards.
#include <gtest/gtest.h>

#include <set>

#include "cluster/simulator.h"
#include "common/rng.h"
#include "ft/enumerator.h"

namespace xdbft {
namespace {

using ft::CollapsedPlan;
using ft::MaterializationConfig;
using plan::OpId;
using plan::OpType;
using plan::Plan;

// A random connected DAG plan: `n` operators, each non-source picks 1-2
// random earlier inputs; every non-sink's output is consumed.
Plan RandomDag(Rng& rng, int n) {
  Plan p("random-dag");
  std::vector<bool> consumed(static_cast<size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    plan::PlanNode node;
    node.label = "op" + std::to_string(i);
    node.runtime_cost = 0.5 + rng.NextDouble() * 20.0;
    node.materialize_cost = rng.NextDouble() * 8.0;
    node.output_rows = 1000.0 * (1 + rng.NextBounded(100));
    node.row_width_bytes = 64;
    if (i > 0) {
      const int fan = 1 + static_cast<int>(rng.NextBounded(2));
      std::set<OpId> inputs;
      // Always consume the previous op occasionally to keep things
      // connected; otherwise random earlier ops.
      for (int f = 0; f < fan; ++f) {
        inputs.insert(static_cast<OpId>(rng.NextBounded(
            static_cast<uint64_t>(i))));
      }
      node.inputs.assign(inputs.begin(), inputs.end());
      node.type = node.inputs.size() == 2 ? OpType::kHashJoin
                                          : OpType::kMapUdf;
      for (OpId in : node.inputs) consumed[static_cast<size_t>(in)] = true;
    } else {
      node.type = OpType::kTableScan;
    }
    p.AddNode(std::move(node));
  }
  return p;
}

MaterializationConfig RandomConfig(Rng& rng, const Plan& p) {
  const uint64_t free_count = ft::EnumerableOperators(p).size();
  const uint64_t mask =
      free_count == 0 ? 0 : rng.Next() & ((uint64_t{1} << free_count) - 1);
  return MaterializationConfig::FromFreeMask(p, mask);
}

class RandomDagProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperties, CollapseCoversEveryOperator) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 25; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(9)));
    ASSERT_TRUE(p.Validate().ok());
    const auto config = RandomConfig(rng, p);
    auto cp = CollapsedPlan::Create(p, config);
    ASSERT_TRUE(cp.ok()) << cp.status();
    // Every original operator appears in at least one collapsed operator.
    std::set<OpId> covered;
    for (const auto& c : cp->ops()) {
      covered.insert(c.members.begin(), c.members.end());
      // The anchor is always materialized and a member.
      EXPECT_TRUE(config.materialized(c.anchor));
      EXPECT_TRUE(std::count(c.members.begin(), c.members.end(), c.anchor));
      // The dominant path ends at the anchor and is within the members.
      ASSERT_FALSE(c.dominant_members.empty());
      EXPECT_EQ(c.dominant_members.back(), c.anchor);
      for (OpId d : c.dominant_members) {
        EXPECT_TRUE(std::count(c.members.begin(), c.members.end(), d));
      }
      // t(c) >= the anchor's own costs.
      EXPECT_GE(c.runtime_cost, p.node(c.anchor).runtime_cost - 1e-9);
    }
    EXPECT_EQ(covered.size(), p.num_nodes());
  }
}

TEST_P(RandomDagProperties, CollapsedOpCountEqualsMaterializedCount) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int trial = 0; trial < 25; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(9)));
    const auto config = RandomConfig(rng, p);
    auto cp = CollapsedPlan::Create(p, config);
    ASSERT_TRUE(cp.ok());
    EXPECT_EQ(cp->num_ops(), config.NumMaterialized());
  }
}

TEST_P(RandomDagProperties, PathCountMatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  for (int trial = 0; trial < 25; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(8)));
    const auto config = RandomConfig(rng, p);
    auto cp = CollapsedPlan::Create(p, config);
    ASSERT_TRUE(cp.ok());
    EXPECT_EQ(cp->CountPaths(), cp->AllPaths().size());
  }
}

TEST_P(RandomDagProperties, DominantCostBoundsEveryPath) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(5, 120.0, 1.0);
  ft::FtCostModel model(ctx);
  for (int trial = 0; trial < 15; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(7)));
    const auto config = RandomConfig(rng, p);
    auto cp = CollapsedPlan::Create(p, config);
    ASSERT_TRUE(cp.ok());
    auto est = model.Estimate(*cp);
    ASSERT_TRUE(est.ok());
    for (const auto& path : cp->AllPaths()) {
      EXPECT_LE(model.PathCost(*cp, path), est->dominant_cost + 1e-9);
    }
    // The dominant path cost is also >= the failure-free makespan of the
    // collapsed path itself.
    double no_failure = 0.0;
    for (ft::CollapsedId id : est->dominant_path) {
      no_failure += cp->op(id).total_cost();
    }
    EXPECT_GE(est->dominant_cost, no_failure - 1e-9);
  }
}

TEST_P(RandomDagProperties, SimulatorRuntimeAtLeastConfigMakespan) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 4000);
  const auto stats = cost::MakeCluster(3, 200.0, 1.0);
  cluster::ClusterSimulator sim(stats);
  for (int trial = 0; trial < 10; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(6)));
    const auto config = RandomConfig(rng, p);
    auto cp = CollapsedPlan::Create(p, config);
    ASSERT_TRUE(cp.ok());
    cluster::ClusterTrace trace =
        cluster::ClusterTrace::Generate(stats, rng.Next());
    auto r = sim.Run(p, config, ft::RecoveryMode::kFineGrained, trace);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
    EXPECT_GE(r->runtime, cp->MakespanNoFailure() - 1e-9);
  }
}

TEST_P(RandomDagProperties, FindBestIsMinOverExhaustiveEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 5000);
  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(4, 100.0, 1.0);
  ft::EnumerationOptions no_pruning;
  no_pruning.pruning.rule1 = no_pruning.pruning.rule2 = false;
  no_pruning.pruning.rule3 = false;
  no_pruning.pruning.memoize_dominant_paths = false;
  for (int trial = 0; trial < 10; ++trial) {
    const Plan p = RandomDag(rng, 4 + static_cast<int>(rng.NextBounded(5)));
    ft::FtPlanEnumerator enumerator(ctx, no_pruning);
    auto best = enumerator.FindBest(p);
    ASSERT_TRUE(best.ok());
    auto all = enumerator.EnumerateAll(p);
    ASSERT_TRUE(all.ok());
    double min_cost = 1e300;
    for (const auto& [config, cost] : *all) {
      min_cost = std::min(min_cost, cost);
    }
    EXPECT_NEAR(best->estimated_cost, min_cost, min_cost * 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperties,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace xdbft
