#include "ft/explain.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ft/enumerator.h"

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

Plan ChainPlan() {
  PlanBuilder b("chain");
  auto s = b.Scan("R", 1e6, 64, 20.0);
  b.Constrain(s, plan::MatConstraint::kNeverMaterialize);
  auto a = b.Unary(OpType::kMapUdf, "cheap-ckpt", s, 50.0, 1.0);
  auto c = b.Unary(OpType::kMapUdf, "pricey-ckpt", a, 50.0, 80.0);
  b.Unary(OpType::kHashAggregate, "agg", c, 10.0, 0.5);
  return std::move(b).Build();
}

FtCostContext Ctx(double mtbf = 200.0) {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(1, mtbf, 1.0);
  return ctx;
}

TEST(ExplainTest, AnalyzesEveryFreeOperator) {
  const Plan p = ChainPlan();
  const auto config = MaterializationConfig::NoMat(p);
  auto analysis = AnalyzeMarginals(p, config, Ctx());
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_EQ(analysis->operators.size(), 2u);  // the two free UDFs
  EXPECT_GT(analysis->configured_cost, 0.0);
}

TEST(ExplainTest, OptimalConfigHasNoNegativeBenefit) {
  // Toggling any single flag of the optimum cannot improve it.
  const Plan p = ChainPlan();
  FtPlanEnumerator enumerator(Ctx());
  auto best = enumerator.FindBest(p);
  ASSERT_TRUE(best.ok());
  auto analysis = AnalyzeMarginals(best->plan, best->config, Ctx());
  ASSERT_TRUE(analysis.ok());
  for (const auto& m : analysis->operators) {
    EXPECT_GE(m.benefit(), -1e-9) << m.label;
  }
}

TEST(ExplainTest, CheapCheckpointShowsPositiveBenefitUnderFailures) {
  // With m(cheap-ckpt)=1 in a flaky environment, un-materializing it must
  // hurt (positive benefit for keeping it).
  Plan p = ChainPlan();
  auto config = MaterializationConfig::NoMat(p);
  config.set_materialized(1, true);
  auto analysis = AnalyzeMarginals(p, config, Ctx(100.0));
  ASSERT_TRUE(analysis.ok());
  const auto& cheap = analysis->operators[0];
  ASSERT_EQ(cheap.op, 1);
  EXPECT_TRUE(cheap.materialized);
  EXPECT_GT(cheap.benefit(), 0.0);
}

TEST(ExplainTest, UselessCheckpointShowsLoss) {
  // Materializing the pricey operator in a reliable environment loses.
  Plan p = ChainPlan();
  auto config = MaterializationConfig::NoMat(p);
  config.set_materialized(2, true);
  auto analysis = AnalyzeMarginals(p, config, Ctx(1e15));
  ASSERT_TRUE(analysis.ok());
  const auto& pricey = analysis->operators[1];
  ASSERT_EQ(pricey.op, 2);
  EXPECT_LT(pricey.benefit(), 0.0);
}

TEST(ExplainTest, ToStringListsOperators) {
  const Plan p = ChainPlan();
  auto analysis =
      AnalyzeMarginals(p, MaterializationConfig::NoMat(p), Ctx());
  ASSERT_TRUE(analysis.ok());
  const std::string s = analysis->ToString();
  EXPECT_NE(s.find("cheap-ckpt"), std::string::npos);
  EXPECT_NE(s.find("pricey-ckpt"), std::string::npos);
  EXPECT_NE(s.find("configured cost"), std::string::npos);
}

TEST(ExplainTest, RejectsInvalidInputs) {
  EXPECT_FALSE(
      AnalyzeMarginals(Plan{}, MaterializationConfig{}, Ctx()).ok());
  Plan p = ChainPlan();
  MaterializationConfig bad(p.num_nodes());  // sink unmaterialized
  EXPECT_FALSE(AnalyzeMarginals(p, bad, Ctx()).ok());
}

TEST(ExplainTest, AccuracyReportPredictsPerCollapsedOperator) {
  const Plan p = ChainPlan();
  const auto config = MaterializationConfig::AllMat(p);
  auto report = BuildAccuracyReport(p, config, Ctx(200.0));
  ASSERT_TRUE(report.ok()) << report.status();
  // All-mat on the 4-op chain: every free op anchors its own collapsed op.
  EXPECT_EQ(report->operators.size(), 3u);
  for (const auto& op : report->operators) {
    EXPECT_GT(op.t, 0.0) << op.label;
    EXPECT_GT(op.gamma, 0.0);
    EXPECT_LT(op.gamma, 1.0);
    EXPECT_GE(op.attempts, 0.0);
    EXPECT_GT(op.wasted, 0.0);
    // T(c) = t + a w + a MTTR >= t.
    EXPECT_GE(op.total, op.t);
  }
  EXPECT_GT(report->predicted_runtime, 0.0);
  EXPECT_GT(report->predicted_attempts, 0.0);
}

TEST(ExplainTest, AccuracyReportRendersObservedNextToPredicted) {
  const Plan p = ChainPlan();
  auto report =
      BuildAccuracyReport(p, MaterializationConfig::AllMat(p), Ctx());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("(no instrumented run)"),
            std::string::npos);

  ObservedExecution observed;
  observed.source = "ft_executor";
  observed.failures = 2;
  observed.recovery_executions = 2;
  observed.task_executions = 23;
  observed.runtime_seconds = 0.5;
  report->observed.push_back(observed);
  const std::string s = report->ToString();
  EXPECT_NE(s.find("observed [ft_executor]"), std::string::npos);
  EXPECT_NE(s.find("2 failures"), std::string::npos);
  EXPECT_NE(s.find("a(c)"), std::string::npos);
  EXPECT_NE(s.find("T(c)"), std::string::npos);
}

// With WAL and bursts on, every row must be the estimate's own
// per-operator pricing: the rows' T(c) along the dominant path sum to the
// predicted runtime bit for bit, and a(c) is priced at the durable t
// against the burst-adjusted MTBF.
TEST(ExplainTest, AccuracyReportRowsMatchEstimateUnderWalAndBursts) {
  Plan p = ChainPlan();
  auto config = MaterializationConfig::NoMat(p);
  config.set_materialized(1, true);
  FtCostContext ctx = Ctx(400.0);
  ctx.cluster.burst_mtbf_seconds = 800.0;
  ctx.cluster.burst_fanout = 0.5;
  ctx.model.wal_enabled = true;
  ctx.model.wal_write_cost = 0.05;
  auto report = BuildAccuracyReport(p, config, ctx);
  ASSERT_TRUE(report.ok()) << report.status();
  auto cp = CollapsedPlan::Create(p, config, ctx.model.pipe_constant);
  ASSERT_TRUE(cp.ok());
  ASSERT_EQ(report->operators.size(), cp->num_ops());
  const FtCostModel model(ctx);
  auto est = model.Estimate(*cp);
  ASSERT_TRUE(est.ok()) << est.status();

  double sum = 0.0;
  for (CollapsedId id : est->dominant_path) {
    sum += report->operators[static_cast<size_t>(id)].total;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(sum),
            std::bit_cast<uint64_t>(report->predicted_runtime))
      << sum << " vs " << report->predicted_runtime;

  const FailureParams fparams = ctx.MakeFailureParams();
  int logged_ops = 0;
  for (size_t i = 0; i < cp->num_ops(); ++i) {
    const PredictedOperator& row = report->operators[i];
    const CollapsedOp& op = cp->op(static_cast<CollapsedId>(i));
    // The durable t carries the log writes of the pipelined intermediates.
    if (op.lineage_volume > 0.0) {
      ++logged_ops;
      EXPECT_GT(row.t, op.total_cost()) << row.label;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(row.attempts),
              std::bit_cast<uint64_t>(ExpectedAttempts(
                  row.t, fparams.effective_mtbf_cost(),
                  fparams.success_target)))
        << row.label;
  }
  EXPECT_GT(logged_ops, 0);
}

TEST(AdvisorTest, ExplainMentionsKeyFacts) {
  PlanBuilder b("sample");
  auto scan = b.Scan("T", 1e8, 64, 100.0);
  b.Constrain(scan, plan::MatConstraint::kNeverMaterialize);
  auto join = b.Unary(OpType::kHashJoin, "join", scan, 80.0, 30.0);
  auto agg = b.Unary(OpType::kHashAggregate, "agg", join, 40.0, 1.0);
  b.Unary(OpType::kSort, "sort", agg, 5.0, 0.2);
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, 600.0, 1.0);
  auto chosen = ApplyCostBasedScheme({std::move(b).Build()}, ctx);
  ASSERT_TRUE(chosen.ok());
  const std::string report = Explain(*chosen, ctx);
  EXPECT_NE(report.find("cost-based"), std::string::npos);
  EXPECT_NE(report.find("fine-grained"), std::string::npos);
  EXPECT_NE(report.find("estimated runtime"), std::string::npos);
  EXPECT_NE(report.find("join"), std::string::npos);
}

}  // namespace
}  // namespace xdbft::ft
