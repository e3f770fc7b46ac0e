// Correlated-failure cost model: the cost pass's refetch arithmetic and
// determinism, its bit-identity with plain Eq. 8 without bursts, context
// validation of the derived parameters, and the enumerator's thread-count
// determinism with the correlated model switched on.
#include <bit>
#include <cstdint>

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

TEST(ComputeCostPassTest, NoBurstsChargeNoRefetch) {
  // Without bursts every materialized input is free to re-read: the pass
  // prices each operator at its own runtime with refetch = 0.
  const Plan p = ChainPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  const CostPassResult r =
      ComputeCostPass(*cp, BaseContext().MakeFailureParams());
  ASSERT_EQ(r.ops.size(), cp->num_ops());
  for (size_t i = 0; i < cp->num_ops(); ++i) {
    EXPECT_TRUE(BitIdentical(
        r.ops[i].durable_t,
        cp->op(static_cast<CollapsedId>(i)).total_cost()))
        << i;
    EXPECT_TRUE(BitIdentical(r.ops[i].refetch, 0.0)) << i;
  }
}

TEST(ComputeCostPassTest, DeterministicAcrossCalls) {
  const Plan p = JoinPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  FtCostContext ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = 300.0;
  const FailureParams fparams = ctx.MakeFailureParams();
  const CostPassResult a = ComputeCostPass(*cp, fparams);
  const CostPassResult b = ComputeCostPass(*cp, fparams);
  ASSERT_EQ(a.ops.size(), cp->num_ops());
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.ops[i].durable_t, b.ops[i].durable_t)) << i;
    EXPECT_TRUE(BitIdentical(a.ops[i].refetch, b.ops[i].refetch)) << i;
    EXPECT_TRUE(BitIdentical(a.ops[i].total, b.ops[i].total)) << i;
  }
}

TEST(ComputeCostPassTest, RefetchIsBurstShareTimesInputsMaterializeCost) {
  // Every materialized input shares fate with its consumer: a recovery
  // attempt re-reads all of them at the burst share, and T(c) is Eq. 8
  // with that charge per attempt.
  const Plan p = JoinPlan();
  auto cp = CollapsedPlan::Create(p, MaterializationConfig::AllMat(p));
  ASSERT_TRUE(cp.ok());
  FtCostContext ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = 300.0;
  ctx.cluster.burst_fanout = 0.5;
  const FailureParams fparams = ctx.MakeFailureParams();
  const double share = fparams.burst_failure_share();
  ASSERT_GT(share, 0.0);
  const auto pass = FtCostModel(ctx).CostPass(*cp);
  ASSERT_EQ(pass.ops.size(), cp->num_ops());
  bool charged = false;
  for (CollapsedId id = 0; id < static_cast<CollapsedId>(cp->num_ops());
       ++id) {
    const auto& op = pass.ops[static_cast<size_t>(id)];
    double inputs_tm = 0.0;
    for (CollapsedId input : cp->op(id).inputs) {
      inputs_tm += cp->op(input).materialize_cost;
    }
    const double t = cp->op(id).total_cost();
    EXPECT_TRUE(BitIdentical(op.durable_t, t)) << id;
    EXPECT_TRUE(BitIdentical(op.refetch, share * inputs_tm)) << id;
    EXPECT_TRUE(BitIdentical(
        op.total, OperatorTotalRuntime(t, fparams, {1.0, share * inputs_tm})))
        << id;
    charged = charged || op.refetch > 0.0;
  }
  EXPECT_TRUE(charged);
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
  // The acceptance bar for the correlated search, whose memo compares
  // (t, refetch) pairs: with bursts on, FindBest returns the same
  // configuration and the same cost bits at every worker count.
  const Plan p = JoinPlan();
  FtCostContext ctx = BaseContext();
  ctx.cluster.burst_mtbf_seconds = 240.0;
  ctx.cluster.burst_fanout = 0.5;
  EnumerationOptions seq;
  seq.num_threads = 1;
  FtPlanEnumerator sequential(ctx, seq);
  auto golden = sequential.FindBest(p);
  ASSERT_TRUE(golden.ok()) << golden.status();
  for (int threads : {2, 4, 0}) {
    EnumerationOptions par;
    par.num_threads = threads;
    FtPlanEnumerator parallel(ctx, par);
    auto got = parallel.FindBest(p);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->config == golden->config) << threads;
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
