#include "ft/pruning.h"

#include <gtest/gtest.h>

namespace xdbft::ft {
namespace {

using plan::MatConstraint;
using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

// Figure 5, left: unary parent. o: tr=2, tm=10 (t({o})=12); p: tr=2, tm=1.
// With CONST_pipe = 0.8: t({o,p}) = (2+2)*0.8 + 1 = 4.2 <= 12 -> prune o.
Plan Fig5UnaryPlan() {
  PlanBuilder b("fig5-unary");
  const OpId o = b.Scan("o", 1e6, 100, 2.0);
  b.plan().mutable_node(o).materialize_cost = 10.0;
  b.Unary(OpType::kHashAggregate, "p", o, 2.0, 1.0);
  return std::move(b).Build();
}

TEST(PruningRule1Test, Fig5UnaryExample) {
  Plan p = Fig5UnaryPlan();
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 1);
  EXPECT_EQ(p.node(0).constraint, MatConstraint::kNeverMaterialize);
  EXPECT_TRUE(p.node(1).is_free());
}

TEST(PruningRule1Test, NotAppliedWhenMaterializationCheap) {
  // t({o}) = 2 + 0.1 = 2.1 < t({o,p}) = 4*0.8 + 1 = 4.2 -> no pruning.
  PlanBuilder b("cheap-mat");
  const OpId o = b.Scan("o", 1e6, 100, 2.0);
  b.plan().mutable_node(o).materialize_cost = 0.1;
  b.Unary(OpType::kHashAggregate, "p", o, 2.0, 1.0);
  Plan p = std::move(b).Build();
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 0);
  EXPECT_TRUE(p.node(0).is_free());
}

// Figure 5, right: n-ary parent. o1: tr=2, tm=10 (t=12); o2: tr=4, tm=5
// (t=9); p: tr=2, tm=1. t({o1,o2,p}) = (max(2,4)+2)*0.8 + 1 = 5.8, which
// is <= 12 and <= 9 -> prune both children.
Plan Fig5NaryPlan() {
  PlanBuilder b("fig5-nary");
  const OpId o1 = b.Scan("o1", 1e6, 100, 2.0);
  b.plan().mutable_node(o1).materialize_cost = 10.0;
  const OpId o2 = b.Scan("o2", 1e6, 100, 4.0);
  b.plan().mutable_node(o2).materialize_cost = 5.0;
  b.Binary(OpType::kHashJoin, "p", o1, o2, 2.0, 1.0);
  return std::move(b).Build();
}

TEST(PruningRule1Test, Fig5NaryExample) {
  Plan p = Fig5NaryPlan();
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 2);
  EXPECT_EQ(p.node(0).constraint, MatConstraint::kNeverMaterialize);
  EXPECT_EQ(p.node(1).constraint, MatConstraint::kNeverMaterialize);
}

TEST(PruningRule1Test, NaryRequiresAllChildrenDominated) {
  // Same as Fig5Nary but o2's materialization is cheap (t({o2}) = 4.5 <
  // 5.8): neither child may be marked.
  PlanBuilder b("nary-partial");
  const OpId o1 = b.Scan("o1", 1e6, 100, 2.0);
  b.plan().mutable_node(o1).materialize_cost = 10.0;
  const OpId o2 = b.Scan("o2", 1e6, 100, 4.0);
  b.plan().mutable_node(o2).materialize_cost = 0.5;
  b.Binary(OpType::kHashJoin, "p", o1, o2, 2.0, 1.0);
  Plan p = std::move(b).Build();
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 0);
}

TEST(PruningRule1Test, SkipsSharedChildren) {
  // o feeds two consumers: collapsing it into one of them would not spare
  // the other consumer's dependency -> rule must not fire.
  PlanBuilder b("shared");
  const OpId o = b.Scan("o", 1e6, 100, 2.0);
  b.plan().mutable_node(o).materialize_cost = 10.0;
  b.Unary(OpType::kHashAggregate, "p1", o, 2.0, 1.0);
  b.Unary(OpType::kHashAggregate, "p2", o, 2.0, 1.0);
  Plan p = std::move(b).Build();
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 0);
}

TEST(PruningRule1Test, IgnoresBoundChildren) {
  Plan p = Fig5UnaryPlan();
  p.mutable_node(0).constraint = MatConstraint::kAlwaysMaterialize;
  EXPECT_EQ(ApplyPruningRule1(&p, 0.8), 0);
  EXPECT_EQ(p.node(0).constraint, MatConstraint::kAlwaysMaterialize);
}

// Figure 6: rule 2. o: tr=0.5, tm=1; p: tr=0.2, tm=0.15. With
// MTBF_cost = 3600 and CONST_pipe = 1: t({o,p}) = 0.85 and
// gamma = e^{-0.85/3600} = 0.99976 >= S = 0.95 -> prune o.
Plan Fig6Plan() {
  PlanBuilder b("fig6");
  const OpId o = b.Scan("o", 1e3, 100, 0.5);
  b.plan().mutable_node(o).materialize_cost = 1.0;
  b.Unary(OpType::kHashAggregate, "p", o, 0.2, 0.15);
  return std::move(b).Build();
}

FtCostContext Fig6Context() {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(/*num_nodes=*/1, /*mtbf=*/3600.0, 0.0);
  return ctx;
}

TEST(PruningRule2Test, Fig6Example) {
  Plan p = Fig6Plan();
  EXPECT_EQ(ApplyPruningRule2(&p, Fig6Context()), 1);
  EXPECT_EQ(p.node(0).constraint, MatConstraint::kNeverMaterialize);
}

TEST(PruningRule2Test, NotAppliedForLowMtbf) {
  Plan p = Fig6Plan();
  FtCostContext ctx = Fig6Context();
  ctx.cluster.mtbf_seconds = 1.0;  // gamma({o,p}) = e^{-0.85} = 0.43 < S
  EXPECT_EQ(ApplyPruningRule2(&p, ctx), 0);
}

TEST(PruningRule2Test, OnlyAppliesToUnaryParents) {
  // Join parent: rule 2 must skip it even with gigantic MTBF.
  PlanBuilder b("binary-parent");
  const OpId o1 = b.Scan("o1", 1e3, 100, 0.5);
  const OpId o2 = b.Scan("o2", 1e3, 100, 0.5);
  b.Binary(OpType::kHashJoin, "p", o1, o2, 0.2, 0.15);
  Plan p = std::move(b).Build();
  EXPECT_EQ(ApplyPruningRule2(&p, Fig6Context()), 0);
}

TEST(PruningRule2Test, SkipsSharedChildren) {
  PlanBuilder b("shared2");
  const OpId o = b.Scan("o", 1e3, 100, 0.5);
  b.Unary(OpType::kHashAggregate, "p1", o, 0.2, 0.15);
  b.Unary(OpType::kHashAggregate, "p2", o, 0.2, 0.15);
  Plan p = std::move(b).Build();
  EXPECT_EQ(ApplyPruningRule2(&p, Fig6Context()), 0);
}

TEST(PruningRule2Test, MarksLongChainsUnderHighMtbf) {
  // "For a high MTBF this rule marks operators with even high total
  // execution costs as non-materializable" (§4.2).
  PlanBuilder b("chain");
  const OpId s = b.Scan("s", 1e6, 100, 100.0);
  b.plan().mutable_node(s).materialize_cost = 20.0;
  const OpId f = b.Unary(OpType::kFilter, "f", s, 50.0, 10.0);
  b.Unary(OpType::kHashAggregate, "agg", f, 20.0, 1.0);
  Plan p = std::move(b).Build();
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(1, 1e9, 0.0);
  EXPECT_EQ(ApplyPruningRule2(&p, ctx), 2);
}

using PathCosts = std::vector<PathOpCost>;

// Burst-free path costs: runtimes only, extra == 0 throughout.
PathCosts Runtimes(std::initializer_list<double> ts) {
  PathCosts out;
  for (const double t : ts) out.push_back({t, 0.0});
  return out;
}

// The memo is strict (see PairwiseDominates): a path prunes only if it is
// at least as expensive as a memoized path everywhere and strictly more
// expensive in some runtime.

// Figure 7: memoized dominant paths (Eq. 9). Ptm1 = {5,3,1} (3 collapsed
// ops), Ptm2 = {4,4} (2 ops). Pt = {4,4,1} dominates Ptm2 (after padding,
// strictly through its third operator) but not Ptm1.
TEST(DominantPathMemoTest, Fig7Example) {
  ConcurrentDominantPathMemo memo;
  memo.Record(Runtimes({5.0, 3.0, 1.0}), /*total=*/9.5);
  EXPECT_FALSE(memo.Dominates(Runtimes({4.0, 4.0, 1.0})));  // 4 < 5 at idx 0
  memo.Record(Runtimes({4.0, 4.0}), /*total=*/8.4);
  EXPECT_TRUE(memo.Dominates(Runtimes({4.0, 4.0, 1.0})));  // pads Ptm2 w/ 0
}

TEST(DominantPathMemoTest, ExactMatchDoesNotDominate) {
  ConcurrentDominantPathMemo memo;
  memo.Record(Runtimes({3.0, 2.0}), 5.2);
  // An exact cost tie is never pruned, in any operator order.
  EXPECT_FALSE(memo.Dominates(Runtimes({2.0, 3.0})));
  EXPECT_TRUE(memo.Dominates(Runtimes({2.1, 3.0})));  // order-insensitive
  EXPECT_TRUE(memo.Dominates(Runtimes({3.0, 2.5})));
  EXPECT_FALSE(memo.Dominates(Runtimes({3.0, 1.9})));
}

TEST(DominantPathMemoTest, ShorterPathCannotMatchLongerMemoOnly) {
  ConcurrentDominantPathMemo memo;
  memo.Record(Runtimes({3.0, 2.0, 1.0}), 6.5);
  // A 2-op path is never compared against a 3-op memo.
  EXPECT_FALSE(memo.Dominates(Runtimes({100.0, 100.0})));
}

TEST(DominantPathMemoTest, RecordKeepsCheapestPerCount) {
  ConcurrentDominantPathMemo memo;
  memo.Record(Runtimes({10.0, 10.0}), 21.0);
  memo.Record(Runtimes({2.0, 2.0}), 4.1);  // cheaper, same count -> replaces
  EXPECT_TRUE(memo.Dominates(Runtimes({2.5, 2.0})));
  memo.Record(Runtimes({9.0, 9.0}), 19.0);  // dearer -> ignored
  EXPECT_TRUE(memo.Dominates(Runtimes({2.5, 2.0})));
}

TEST(DominantPathMemoTest, EmptyMemoDominatesNothing) {
  ConcurrentDominantPathMemo memo;
  EXPECT_TRUE(memo.empty());
  EXPECT_FALSE(memo.Dominates(Runtimes({1.0})));
}

TEST(DominantPathMemoTest, ClearResets) {
  ConcurrentDominantPathMemo memo;
  memo.Record(Runtimes({1.0}), 1.0);
  EXPECT_FALSE(memo.empty());
  memo.Clear();
  EXPECT_TRUE(memo.empty());
  EXPECT_FALSE(memo.Dominates(Runtimes({5.0})));
}

// Burst-priced memo entries: dominance must hold componentwise over
// (runtime, per-attempt refetch), not runtime alone.
TEST(DominantPathMemoTest, PairExtraBlocksDominance) {
  ConcurrentDominantPathMemo memo;
  memo.Record(PathCosts{{3.0, 0.0}, {2.0, 1.0}}, 5.2);
  // The probe is worse or equal on every component and strictly slower
  // on one operator, so it is dominated.
  EXPECT_TRUE(memo.Dominates(PathCosts{{3.5, 0.5}, {2.0, 1.0}}));
  // Probe has *less* refetch on one op: not dominated.
  EXPECT_FALSE(memo.Dominates(PathCosts{{3.5, 0.0}, {2.0, 0.5}}));
}

TEST(DominantPathMemoTest, PairStrictNeedsRuntimeGap) {
  const DominantPathEntry entry{{{3.0, 1.0}}, 4.0};
  // Identical (t, extra): dominated non-strictly, but never strictly.
  EXPECT_TRUE(PairwiseDominates(PathCosts{{3.0, 1.0}}, entry, false));
  EXPECT_FALSE(PairwiseDominates(PathCosts{{3.0, 1.0}}, entry, true));
  // A larger extra alone cannot certify strictness (a(c) may be 0)...
  EXPECT_FALSE(PairwiseDominates(PathCosts{{3.0, 2.0}}, entry, true));
  // ...but a runtime gap does.
  EXPECT_TRUE(PairwiseDominates(PathCosts{{3.5, 1.0}}, entry, true));
}

}  // namespace
}  // namespace xdbft::ft
