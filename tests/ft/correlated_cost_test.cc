// Correlated-failure + placement-aware cost model: ComputePlacement
// determinism and tie-breaking, the inert pass's bit-identity with the
// pre-placement arithmetic, context validation of the derived
// parameters, and the enumerator's thread-count determinism with the
// correlated model switched on.
#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "ft/enumerator.h"
#include "ft/ft_cost.h"
#include "ft/mat_config.h"
#include "plan/plan.h"

namespace xdbft::ft {
namespace {

using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

Plan ChainPlan() {
  PlanBuilder b("chain");
  auto s = b.Scan("s", 1e6, 100, 80.0);
  auto f = b.Unary(OpType::kFilter, "f", s, 70.0, 5.0);
  b.Unary(OpType::kHashAggregate, "agg", f, 50.0, 5.0);
  return std::move(b).Build();
}

Plan JoinPlan() {
  PlanBuilder b("join");
  auto l = b.Scan("l", 1e6, 100, 60.0);
  auto r = b.Scan("r", 1e5, 50, 30.0);
  auto j = b.Binary(OpType::kHashJoin, "j", l, r, 90.0, 20.0);
  b.Unary(OpType::kHashAggregate, "agg", j, 40.0, 2.0);
  return std::move(b).Build();
}

FtCostContext BaseContext() {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(4, 600.0, 5.0);
  return ctx;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(ComputePlacementTest, InactiveParamsDegenerateToGroupZero) {
  // With inactive params the pass degenerates to one group with unchanged
  // costs (Estimate then leaves FtPlanEstimate::placement_groups empty).
  const Plan p = ChainPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  PlacementParams pparams;  // one group, no correlation
  EXPECT_FALSE(pparams.active());
  const PlacementResult r =
      ComputePlacement(*cp, pparams, BaseContext().MakeFailureParams());
  ASSERT_EQ(r.ops.size(), cp->num_ops());
  for (size_t i = 0; i < cp->num_ops(); ++i) {
    EXPECT_EQ(r.ops[i].group, 0) << i;
    EXPECT_TRUE(BitIdentical(
        r.ops[i].durable_t,
        cp->op(static_cast<CollapsedId>(i)).total_cost()))
        << i;
    EXPECT_TRUE(BitIdentical(r.ops[i].refetch, 0.0)) << i;
  }
}

TEST(ComputePlacementTest, DeterministicAcrossCalls) {
  const Plan p = JoinPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  FtCostContext ctx = BaseContext();
  ctx.cluster.num_placement_groups = 3;
  ctx.cluster.burst_mtbf_seconds = 300.0;
  const PlacementParams pparams = ctx.MakePlacementParams();
  ASSERT_TRUE(pparams.active());
  const FailureParams fparams = ctx.MakeFailureParams();
  const PlacementResult a = ComputePlacement(*cp, pparams, fparams);
  const PlacementResult b = ComputePlacement(*cp, pparams, fparams);
  ASSERT_EQ(a.ops.size(), cp->num_ops());
  EXPECT_EQ(a.groups(), b.groups());
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.ops[i].durable_t, b.ops[i].durable_t)) << i;
    EXPECT_TRUE(BitIdentical(a.ops[i].refetch, b.ops[i].refetch)) << i;
  }
}

TEST(ComputePlacementTest, NoPreferenceTiesBreakToLowestGroup) {
  // With no remote-read penalty and no correlated share, every group costs
  // the same — the deterministic tie-break must pick group 0 everywhere.
  const Plan p = ChainPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  PlacementParams pparams;
  pparams.num_groups = 4;
  pparams.remote_read_penalty = 0.0;
  pparams.burst_failure_share = 0.0;
  ASSERT_TRUE(pparams.active());
  const PlacementResult r =
      ComputePlacement(*cp, pparams, BaseContext().MakeFailureParams());
  ASSERT_EQ(r.ops.size(), cp->num_ops());
  for (int g : r.groups()) EXPECT_EQ(g, 0);
}

TEST(ComputePlacementTest, RemotePenaltyCoPlacesChain) {
  // A pure remote-read penalty (no correlated failures) makes every
  // operator want to sit with its inputs: the whole chain co-places.
  const Plan p = ChainPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  PlacementParams pparams;
  pparams.num_groups = 4;
  pparams.remote_read_penalty = 0.5;
  const PlacementResult r =
      ComputePlacement(*cp, pparams, BaseContext().MakeFailureParams());
  ASSERT_EQ(r.ops.size(), cp->num_ops());
  for (size_t i = 0; i < r.ops.size(); ++i) {
    EXPECT_EQ(r.ops[i].group, r.ops[0].group) << i;
    EXPECT_TRUE(BitIdentical(r.ops[i].refetch, 0.0)) << i;
  }
}

TEST(ComputePlacementTest, CorrelatedShareSpreadsAwayFromInputs) {
  // With free remote reads but a correlated-failure share, co-placing a
  // consumer with its materialized input charges the input's re-fetch on
  // every recovery attempt — the consumer moves to another group.
  const Plan p = ChainPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  FtCostContext ctx = BaseContext();
  ctx.cluster.num_placement_groups = 4;
  ctx.cluster.remote_read_penalty = 0.0;
  ctx.cluster.burst_mtbf_seconds = 120.0;  // heavy correlation
  const PlacementResult r = ComputePlacement(
      *cp, ctx.MakePlacementParams(), ctx.MakeFailureParams());
  ASSERT_EQ(r.ops.size(), cp->num_ops());
  bool spread_somewhere = false;
  for (CollapsedId id = 0; id < static_cast<CollapsedId>(cp->num_ops());
       ++id) {
    for (CollapsedId input : cp->op(id).inputs) {
      // Inputs with tm == 0 (scans) cost nothing to re-fetch; every group
      // ties and the tie-break keeps them together. Materialized inputs
      // must be avoided.
      if (cp->op(input).materialize_cost <= 0.0) continue;
      EXPECT_NE(r.ops[static_cast<size_t>(id)].group,
                r.ops[static_cast<size_t>(input)].group)
          << "op " << id << " co-placed with input " << input;
      spread_somewhere = true;
    }
    EXPECT_TRUE(
        BitIdentical(r.ops[static_cast<size_t>(id)].refetch, 0.0));
  }
  EXPECT_TRUE(spread_somewhere);
}

TEST(FtCostModelTest, InactivePlacementEstimateHasNoGroups) {
  const Plan p = ChainPlan();
  FtCostModel model(BaseContext());
  auto est = model.Estimate(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->placement_groups.empty());
}

TEST(FtCostModelTest, ActivePlacementEstimatePopulatesGroups) {
  const Plan p = ChainPlan();
  FtCostContext ctx = BaseContext();
  ctx.cluster.num_placement_groups = 2;
  ctx.cluster.burst_mtbf_seconds = 300.0;
  FtCostModel model(ctx);
  const MaterializationConfig config = MaterializationConfig::AllMat(p);
  auto est = model.Estimate(p, config);
  ASSERT_TRUE(est.ok());
  auto cp = CollapsedPlan::Create(p, config, ctx.model.pipe_constant);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(est->placement_groups.size(), cp->num_ops());
}

TEST(FtCostModelTest, PenaltyFreePlacementMatchesBaseBitwise) {
  // Placement groups alone (no penalty, no correlation) must not move the
  // estimate by even one ulp: the enumeration with correlation disabled
  // stays bit-identical to the pre-placement model.
  const Plan p = JoinPlan();
  FtCostContext base = BaseContext();
  FtCostContext placed = base;
  placed.cluster.num_placement_groups = 4;
  placed.cluster.remote_read_penalty = 0.0;
  const MaterializationConfig config = MaterializationConfig::AllMat(p);
  auto a = FtCostModel(base).Estimate(p, config);
  auto b = FtCostModel(placed).Estimate(p, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(BitIdentical(a->dominant_cost, b->dominant_cost))
      << a->dominant_cost << " vs " << b->dominant_cost;
}

TEST(FtCostModelTest, BurstsNeverLowerTheEstimate) {
  const Plan p = JoinPlan();
  const MaterializationConfig config = MaterializationConfig::AllMat(p);
  FtCostContext base = BaseContext();
  auto independent = FtCostModel(base).Estimate(p, config);
  ASSERT_TRUE(independent.ok());
  double prev = independent->dominant_cost;
  for (double interval : {4800.0, 1200.0, 300.0, 75.0}) {
    FtCostContext bursty = base;
    bursty.cluster.burst_mtbf_seconds = interval;
    auto est = FtCostModel(bursty).Estimate(p, config);
    ASSERT_TRUE(est.ok());
    EXPECT_GE(est->dominant_cost, prev * (1.0 - 1e-12)) << interval;
    prev = est->dominant_cost;
  }
}

TEST(FtCostContextTest, ValidateRejectsDerivedOverflow) {
  // mtbf_seconds and cost_constant both finite, but their product (the
  // derived cost-unit MTBF) overflows to inf — Validate must catch it.
  FtCostContext ctx = BaseContext();
  ctx.cluster.mtbf_seconds = 1e300;
  ctx.model.cost_constant = 1e300;
  EXPECT_FALSE(ctx.Validate().ok());
}

TEST(FtCostContextTest, ValidateRejectsBadBurstCluster) {
  FtCostContext ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = -10.0;
  EXPECT_FALSE(ctx.Validate().ok());
  ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = 300.0;
  ctx.cluster.burst_fanout = 0.0;
  EXPECT_FALSE(ctx.Validate().ok());
  ctx = BaseContext();
  ctx.cluster.num_placement_groups = 0;
  EXPECT_FALSE(ctx.Validate().ok());
  ctx = BaseContext();
  ctx.cluster.remote_read_penalty =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ctx.Validate().ok());
}

TEST(EnumerationOptionsTest, ValidateRejectsBadKnobs) {
  EnumerationOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.num_threads = -1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = EnumerationOptions{};
  opts.max_free_operators = 63;
  EXPECT_FALSE(opts.Validate().ok());
  opts.max_free_operators = -1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(CorrelatedEnumerationTest, BitIdenticalAtAnyThreadCount) {
  // The acceptance bar for the placement-aware search: with bursts and
  // placement on, FindBest returns the same configuration and the same
  // cost bits at every worker count.
  const Plan p = JoinPlan();
  FtCostContext ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = 240.0;
  ctx.cluster.burst_fanout = 0.5;
  ctx.cluster.num_placement_groups = 2;
  EnumerationOptions seq;
  seq.num_threads = 1;
  FtPlanEnumerator sequential(ctx, seq);
  auto golden = sequential.FindBest(p);
  ASSERT_TRUE(golden.ok()) << golden.status();
  EXPECT_FALSE(golden->placement_groups.empty());
  for (int threads : {2, 4, 0}) {
    EnumerationOptions par;
    par.num_threads = threads;
    FtPlanEnumerator parallel(ctx, par);
    auto got = parallel.FindBest(p);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->config == golden->config) << threads;
    EXPECT_EQ(got->placement_groups, golden->placement_groups) << threads;
    EXPECT_TRUE(BitIdentical(got->estimated_cost, golden->estimated_cost))
        << threads << ": " << got->estimated_cost << " vs "
        << golden->estimated_cost;
  }
}

TEST(CorrelatedEnumerationTest, BurstsCanChangeTheChosenPlan) {
  // The correlated model is not just a scalar on top of the independent
  // one: under heavy correlation checkpoints pay for themselves sooner.
  // (This documents that the knob is live; the specific flip point is
  // plan-dependent.)
  const Plan p = ChainPlan();
  FtCostContext calm = BaseContext();
  calm.cluster.mtbf_seconds = 1.0e7;
  FtCostContext stormy = calm;
  stormy.cluster.burst_mtbf_seconds = 40.0;
  FtPlanEnumerator calm_enum(calm);
  FtPlanEnumerator stormy_enum(stormy);
  auto calm_best = calm_enum.FindBest(p);
  auto stormy_best = stormy_enum.FindBest(p);
  ASSERT_TRUE(calm_best.ok());
  ASSERT_TRUE(stormy_best.ok());
  EXPECT_FALSE(stormy_best->config == calm_best->config);
}

}  // namespace
}  // namespace xdbft::ft
