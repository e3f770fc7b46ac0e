#include "ft/collapsed_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ft/ft_cost.h"
#include "tpch/queries.h"
#include "validate/generator.h"

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

// The paper's Figure 3 plan (0-based ids): 0,1 -> 2 -> 3 -> 4 -> {5, 6}.
// Costs are chosen so the collapsed t(c) values match Table 2:
// t({0,1,2}) = 4, t({3,4}) = 3, t({5}) = 1, t({6}) = 2.
Plan Fig3Plan() {
  PlanBuilder b("fig3");
  const OpId s1 = b.Scan("R", 1e6, 100, 1.0);                       // op 0
  const OpId s2 = b.Scan("S", 1e6, 100, 2.0);                       // op 1
  const OpId j = b.Binary(OpType::kHashJoin, "join", s1, s2, 1.5, 0.5);
  const OpId m = b.Unary(OpType::kMapUdf, "map", j, 1.0, 1.0);      // op 3
  const OpId r = b.Unary(OpType::kRepartition, "rep", m, 1.5, 0.5); // op 4
  b.Unary(OpType::kReduceUdf, "red1", r, 0.8, 0.2);                 // op 5
  b.Unary(OpType::kReduceUdf, "red2", r, 1.6, 0.4);                 // op 6
  return std::move(b).Build();
}

MaterializationConfig Fig3Config(const Plan& p) {
  auto c = MaterializationConfig::NoMat(p);
  c.set_materialized(2, true);  // join output materialized
  c.set_materialized(4, true);  // repartition output materialized
  return c;                     // 5, 6 are sinks -> materialized already
}

TEST(CollapsedPlanTest, Fig3Structure) {
  Plan p = Fig3Plan();
  auto r = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(r.ok()) << r.status();
  const CollapsedPlan& cp = *r;
  ASSERT_EQ(cp.num_ops(), 4u);
  EXPECT_EQ(cp.op(0).members, (std::vector<OpId>{0, 1, 2}));
  EXPECT_EQ(cp.op(1).members, (std::vector<OpId>{3, 4}));
  EXPECT_EQ(cp.op(2).members, (std::vector<OpId>{5}));
  EXPECT_EQ(cp.op(3).members, (std::vector<OpId>{6}));
  EXPECT_EQ(cp.op(1).inputs, (std::vector<CollapsedId>{0}));
  EXPECT_EQ(cp.op(2).inputs, (std::vector<CollapsedId>{1}));
  EXPECT_EQ(cp.op(3).inputs, (std::vector<CollapsedId>{1}));
  EXPECT_EQ(cp.sources(), (std::vector<CollapsedId>{0}));
  EXPECT_EQ(cp.sinks(), (std::vector<CollapsedId>{2, 3}));
}

TEST(CollapsedPlanTest, Fig3CostsMatchTable2) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  EXPECT_DOUBLE_EQ(cp->op(0).total_cost(), 4.0);   // (2 + 1.5) + 0.5
  EXPECT_DOUBLE_EQ(cp->op(1).total_cost(), 3.0);   // (1 + 1.5) + 0.5
  EXPECT_DOUBLE_EQ(cp->op(2).total_cost(), 1.0);   // 0.8 + 0.2
  EXPECT_DOUBLE_EQ(cp->op(3).total_cost(), 2.0);   // 1.6 + 0.4
}

TEST(CollapsedPlanTest, DominantMemberPathPicksMaxTrBranch) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  // In {0,1,2}, scan 1 (tr=2) dominates scan 0 (tr=1).
  EXPECT_EQ(cp->op(0).dominant_members, (std::vector<OpId>{1, 2}));
}

TEST(CollapsedPlanTest, PipeConstantAppliedToMultiOpPathsOnly) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 0.8);
  ASSERT_TRUE(cp.ok());
  // Multi-operator dominant path is discounted...
  EXPECT_DOUBLE_EQ(cp->op(0).runtime_cost, (2.0 + 1.5) * 0.8);
  // ...singleton collapsed operators are not (Fig. 5's t({o}) = tr + tm).
  EXPECT_DOUBLE_EQ(cp->op(2).runtime_cost, 0.8);
}

TEST(CollapsedPlanTest, Fig3PathEnumeration) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  const auto paths = cp->AllPaths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (CollapsedPath{0, 1, 2}));
  EXPECT_EQ(paths[1], (CollapsedPath{0, 1, 3}));
}

TEST(CollapsedPlanTest, PathTotalsSumToTable2Runtimes) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  const auto no_failure = [&](const CollapsedPath& path) {
    double total = 0.0;
    for (CollapsedId id : path) total += cp->op(id).total_cost();
    return total;
  };
  EXPECT_DOUBLE_EQ(no_failure({0, 1, 2}), 8.0);
  EXPECT_DOUBLE_EQ(no_failure({0, 1, 3}), 9.0);
}

TEST(CollapsedPlanTest, MakespanIsCriticalPath) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  // Sinks {5} and {6} run in parallel after {3,4}; critical path is 9.
  EXPECT_DOUBLE_EQ(cp->MakespanNoFailure(), 9.0);
}

TEST(CollapsedPlanTest, NoMatCollapsesIntoSinks) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::NoMat(p), 1.0);
  ASSERT_TRUE(cp.ok());
  // Only the two sinks remain; each contains the full upstream sub-plan.
  ASSERT_EQ(cp->num_ops(), 2u);
  EXPECT_EQ(cp->op(0).members, (std::vector<OpId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(cp->op(1).members, (std::vector<OpId>{0, 1, 2, 3, 4, 6}));
  EXPECT_TRUE(cp->op(0).inputs.empty());
  EXPECT_TRUE(cp->op(1).inputs.empty());
}

TEST(CollapsedPlanTest, SharedNonMaterializedWorkIsDuplicated) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::NoMat(p), 1.0);
  ASSERT_TRUE(cp.ok());
  // Ops 0-4 appear in both collapsed sinks: their work is re-done per
  // consumer when nothing is materialized.
  std::multiset<OpId> all;
  for (const auto& c : cp->ops()) {
    all.insert(c.members.begin(), c.members.end());
  }
  EXPECT_EQ(all.count(4), 2u);
  EXPECT_EQ(all.count(0), 2u);
}

TEST(CollapsedPlanTest, AllMatGivesOneCollapsedOpPerOperator) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p), 1.0);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->num_ops(), p.num_nodes());
  for (const auto& c : cp->ops()) {
    EXPECT_EQ(c.members.size(), 1u);
    EXPECT_EQ(c.dominant_members.size(), 1u);
  }
}

TEST(CollapsedPlanTest, ForEachPathEarlyStop) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  size_t calls = 0;
  const size_t visited = cp->ForEachPath([&](const CollapsedPath&) {
    ++calls;
    return false;  // stop after the first path
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(visited, 1u);
}

TEST(CollapsedPlanTest, RejectsInvalidPipeConstant) {
  Plan p = Fig3Plan();
  EXPECT_FALSE(CollapsedPlan::Create(p, Fig3Config(p), 0.0).ok());
  EXPECT_FALSE(CollapsedPlan::Create(p, Fig3Config(p), 1.5).ok());
}

TEST(CollapsedPlanTest, RejectsInvalidConfig) {
  Plan p = Fig3Plan();
  MaterializationConfig bad(p.num_nodes());  // sink not materialized
  EXPECT_FALSE(CollapsedPlan::Create(p, bad, 1.0).ok());
}

TEST(CollapsedPlanTest, ExplainListsCollapsedOps) {
  Plan p = Fig3Plan();
  auto cp = CollapsedPlan::Create(p, Fig3Config(p), 1.0);
  ASSERT_TRUE(cp.ok());
  const std::string s = cp->Explain();
  EXPECT_NE(s.find("{0,1,2}"), std::string::npos);
  EXPECT_NE(s.find("{3,4}"), std::string::npos);
}

// Diamond DAG: scan -> {a, b} -> join. With only the scan materialized the
// two branches collapse into the join's collapsed operator.
TEST(CollapsedPlanTest, DiamondCollapse) {
  PlanBuilder b("diamond");
  const OpId s = b.Scan("R", 100, 8, 2.0);
  const OpId a = b.Unary(OpType::kFilter, "a", s, 3.0, 1.0);
  const OpId x = b.Unary(OpType::kFilter, "b", s, 5.0, 1.0);
  b.Binary(OpType::kHashJoin, "join", a, x, 1.0, 0.5);
  Plan p = std::move(b).Build();
  auto config = MaterializationConfig::NoMat(p);
  config.set_materialized(s, true);
  auto cp = CollapsedPlan::Create(p, config, 1.0);
  ASSERT_TRUE(cp.ok());
  ASSERT_EQ(cp->num_ops(), 2u);
  EXPECT_EQ(cp->op(1).members, (std::vector<OpId>{1, 2, 3}));
  // Dominant internal path takes the tr=5 branch: 5 + 1 = 6.
  EXPECT_DOUBLE_EQ(cp->op(1).runtime_cost, 6.0);
  // The scan is consumed by both branches but only one edge c0 -> c1.
  EXPECT_EQ(cp->op(1).inputs, (std::vector<CollapsedId>{0}));
}

// The collapse by its definition (§3.3), with ordered sets and maps: the
// oracle for Create's flat, per-operator scratch.
std::vector<CollapsedOp> OracleCollapse(const Plan& plan,
                                        const MaterializationConfig& config,
                                        double pipe_constant) {
  std::vector<CollapsedOp> ops;
  std::map<OpId, CollapsedId> anchor_to_id;
  for (const auto& node : plan.nodes()) {
    if (!config.materialized(node.id)) continue;
    CollapsedOp c;
    c.id = static_cast<CollapsedId>(ops.size());
    c.anchor = node.id;
    std::set<OpId> members;
    std::set<CollapsedId> inputs;
    std::vector<OpId> stack = {node.id};
    while (!stack.empty()) {
      const OpId o = stack.back();
      stack.pop_back();
      if (!members.insert(o).second) continue;
      for (OpId in : plan.node(o).inputs) {
        if (config.materialized(in)) {
          inputs.insert(anchor_to_id.at(in));
        } else {
          stack.push_back(in);
        }
      }
    }
    c.members.assign(members.begin(), members.end());
    c.inputs.assign(inputs.begin(), inputs.end());
    std::map<OpId, double> longest;
    std::map<OpId, OpId> pred;
    for (OpId o : c.members) {
      double best_in = 0.0;
      OpId best_pred = plan::kInvalidOpId;
      for (OpId in : plan.node(o).inputs) {
        if (members.count(in) && longest.at(in) > best_in) {
          best_in = longest.at(in);
          best_pred = in;
        }
      }
      longest[o] = plan.node(o).runtime_cost + best_in;
      pred[o] = best_pred;
    }
    for (OpId o = node.id; o != plan::kInvalidOpId; o = pred.at(o)) {
      c.dominant_members.insert(c.dominant_members.begin(), o);
    }
    c.runtime_cost = longest.at(node.id) *
                     (c.dominant_members.size() > 1 ? pipe_constant : 1.0);
    c.materialize_cost = plan.node(node.id).materialize_cost;
    for (OpId m : c.members) {
      if (m != node.id) c.lineage_volume += plan.node(m).materialize_cost;
    }
    anchor_to_id[node.id] = c.id;
    ops.push_back(std::move(c));
  }
  return ops;
}

void ExpectSameOps(std::span<const CollapsedOp> got,
                   const std::vector<CollapsedOp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].anchor, want[i].anchor);
    EXPECT_EQ(got[i].members, want[i].members);
    EXPECT_EQ(got[i].inputs, want[i].inputs);
    EXPECT_EQ(got[i].dominant_members, want[i].dominant_members);
    EXPECT_EQ(got[i].runtime_cost, want[i].runtime_cost);
    EXPECT_EQ(got[i].materialize_cost, want[i].materialize_cost);
    EXPECT_EQ(got[i].lineage_volume, want[i].lineage_volume);
  }
}

// Visits every free mask of `plan` in ascending, descending and shuffled
// order the way the enumerator does: one configuration rewritten with
// SetFreeMask, one collapsed plan rebuilt in place and one cost-pass
// buffer, all reused across masks. A fresh Create must equal the oracle,
// and every reused buffer what a fresh build gives.
void ExpectEveryMaskMatchesOracle(const Plan& plan, double pipe_constant) {
  const std::vector<OpId> free_ops = EnumerableOperators(plan);
  ASSERT_LE(free_ops.size(), 12u);
  const uint64_t num_masks = uint64_t{1} << free_ops.size();
  std::vector<uint64_t> ascending(num_masks);
  for (uint64_t m = 0; m < num_masks; ++m) ascending[m] = m;
  std::vector<uint64_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<uint64_t> shuffled = ascending;
  Rng rng(num_masks);
  rng.Shuffle(shuffled);

  FtCostContext context;
  context.cluster = cost::MakeCluster(4, 3600.0);
  context.cluster.burst_mtbf_seconds = 900.0;
  const FailureParams fparams = context.MakeFailureParams();
  for (const auto& order : {ascending, descending, shuffled}) {
    MaterializationConfig config = MaterializationConfig::NoMat(plan);
    CollapsedPlan reused;
    CostPassResult pass;
    for (uint64_t mask : order) {
      SCOPED_TRACE(mask);
      config.SetFreeMask(free_ops, mask);
      ASSERT_EQ(config, MaterializationConfig::FromFreeMask(plan, mask));
      auto cp = CollapsedPlan::Create(plan, config, pipe_constant);
      ASSERT_TRUE(cp.ok()) << cp.status().ToString();
      const std::vector<CollapsedOp> want =
          OracleCollapse(plan, config, pipe_constant);
      ExpectSameOps(cp->ops(), want);
      std::vector<CollapsedId> sources, sinks;
      for (const CollapsedOp& c : want) {
        if (c.inputs.empty()) sources.push_back(c.id);
        if (std::none_of(want.begin(), want.end(), [&](const CollapsedOp& o) {
              return std::count(o.inputs.begin(), o.inputs.end(), c.id) > 0;
            })) {
          sinks.push_back(c.id);
        }
      }
      EXPECT_EQ(cp->sources(), sources);
      EXPECT_EQ(cp->sinks(), sinks);
      ASSERT_TRUE(reused.Rebuild(plan, config, pipe_constant).ok());
      ExpectSameOps(reused.ops(), std::vector<CollapsedOp>(
                                      cp->ops().begin(), cp->ops().end()));
      EXPECT_EQ(reused.sources(), cp->sources());
      EXPECT_EQ(reused.sinks(), cp->sinks());
      EXPECT_EQ(reused.AllPaths(), cp->AllPaths());
      ComputeCostPass(reused, fparams, WalParams{}, &pass);
      const CostPassResult fresh = ComputeCostPass(*cp, fparams);
      ASSERT_EQ(pass.ops.size(), fresh.ops.size());
      for (size_t i = 0; i < fresh.ops.size(); ++i) {
        EXPECT_EQ(pass.ops[i].durable_t, fresh.ops[i].durable_t);
        EXPECT_EQ(pass.ops[i].refetch, fresh.ops[i].refetch);
        EXPECT_EQ(pass.ops[i].total, fresh.ops[i].total);
      }
    }
  }
}

TEST(CollapsedPlanOracleTest, EveryQ5MaskInAnyOrderMatchesTheOracle) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  cfg.num_nodes = 10;
  auto q5 = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  ASSERT_TRUE(q5.ok());
  ExpectEveryMaskMatchesOracle(*q5, 1.0);
  ExpectEveryMaskMatchesOracle(*q5, 0.8);
}

TEST(CollapsedPlanOracleTest, EveryRandomDagMaskInAnyOrderMatchesTheOracle) {
  validate::PlanGenOptions opts;
  opts.min_ops = 6;
  opts.max_ops = 12;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ExpectEveryMaskMatchesOracle(validate::RandomPlan(rng, opts), 0.9);
  }
}

}  // namespace
}  // namespace xdbft::ft
