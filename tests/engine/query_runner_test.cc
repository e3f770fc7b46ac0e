// The benchmark queries Q1/Q3/Q5, run as stage plans by the
// FaultTolerantExecutor without failures, against single-node reference
// computations; and cost calibration of the measured stage DAG.
#include "engine/query_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "engine/cost_calibrator.h"
#include "engine/ft_executor.h"

namespace xdbft::engine {
namespace {

using catalog::TpchTable;
using exec::Value;

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.01;
    opts.seed = 4242;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 4);
    auto* f = new Fixture{std::move(*db), std::move(*pd)};
    return f;
  }();
  return *fixture;
}

// A failure-free run: the measurement cost calibration starts from.
Result<FtExecutionResult> RunClean(const StagePlan& plan,
                                   const PartitionedDatabase* db) {
  FaultTolerantExecutor executor(&plan, db);
  return executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
}

// ---- single-node reference computations ----

// Q1 reference: group lineitem rows passing the shipdate filter by
// (returnflag, linestatus), summing qty/price and counting.
std::map<std::pair<std::string, std::string>, std::tuple<double, double, int64_t>>
ReferenceQ1(const datagen::TpchDatabase& db) {
  std::map<std::pair<std::string, std::string>,
           std::tuple<double, double, int64_t>>
      groups;
  for (const auto& row : db.lineitem.ToRows()) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    auto& [qty, price, cnt] =
        groups[{row[8].AsString(), row[9].AsString()}];
    qty += row[4].AsDouble();
    price += row[5].AsDouble();
    ++cnt;
  }
  return groups;
}

// Q5 reference: revenue per nation name.
std::map<std::string, double> ReferenceQ5(const datagen::TpchDatabase& db) {
  std::map<int64_t, int64_t> cust_nation;
  for (const auto& row : db.customer.ToRows()) {
    cust_nation[row[0].AsInt64()] = row[2].AsInt64();
  }
  std::map<int64_t, int64_t> supp_nation;
  for (const auto& row : db.supplier.ToRows()) {
    supp_nation[row[0].AsInt64()] = row[2].AsInt64();
  }
  std::map<int64_t, std::string> nation_name;
  std::set<int64_t> region_nations;
  for (const auto& row : db.nation.ToRows()) {
    nation_name[row[0].AsInt64()] = row[1].AsString();
    if (row[2].AsInt64() == params::kQ5Region) {
      region_nations.insert(row[0].AsInt64());
    }
  }
  std::map<int64_t, std::pair<int64_t, bool>> order_info;  // cust, in-range
  for (const auto& row : db.orders.ToRows()) {
    const int64_t d = row[2].AsInt64();
    order_info[row[0].AsInt64()] = {
        row[1].AsInt64(),
        d >= params::kQ5YearStart && d < params::kQ5YearEnd};
  }
  std::map<std::string, double> revenue;
  for (const auto& row : db.lineitem.ToRows()) {
    const auto& [cust, in_range] = order_info[row[0].AsInt64()];
    if (!in_range) continue;
    const int64_t cnat = cust_nation[cust];
    if (!region_nations.count(cnat)) continue;
    if (supp_nation[row[3].AsInt64()] != cnat) continue;
    revenue[nation_name[cnat]] +=
        row[5].AsDouble() * (1.0 - row[6].AsDouble());
  }
  return revenue;
}

TEST(QueryRunnerTest, Q1MatchesReference) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->failures_injected, 0);
  EXPECT_EQ(result->recovery_executions, 0);
  const auto ref = ReferenceQ1(f.db);
  ASSERT_EQ(result->result.num_rows(), ref.size());
  for (const auto& row : result->result.ToRows()) {
    const auto it = ref.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, ref.end());
    const auto& [qty, price, cnt] = it->second;
    EXPECT_NEAR(row[2].AsDouble(), qty, std::fabs(qty) * 1e-9);
    EXPECT_NEAR(row[3].AsDouble(), price, std::fabs(price) * 1e-9);
    // The merge phase sums partial counts with SUM, which is double-typed.
    EXPECT_DOUBLE_EQ(row[4].AsDouble(), static_cast<double>(cnt));
  }
}

TEST(QueryRunnerTest, Q1RecordsStages) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1StagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(plan.num_stages(), 2);
  EXPECT_EQ(plan.stage(0).label, "PartialAgg(L)");
  ASSERT_EQ(result->stage_output_rows.size(), 2u);
  EXPECT_GT(result->stage_output_rows[0], 0u);
  EXPECT_EQ(result->stage_output_rows[1], result->result.num_rows());
  EXPECT_GT(result->wall_seconds, 0.0);
}

TEST(QueryRunnerTest, Q3ReturnsTopTenByRevenue) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ3StagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_LE(result->result.num_rows(), 10u);
  ASSERT_GT(result->result.num_rows(), 0u);
  // Sorted descending by revenue.
  const auto rev = result->result.schema.Find("revenue");
  ASSERT_TRUE(rev.ok());
  double prev = 1e300;
  for (const auto& row : result->result.ToRows()) {
    const double r = row[static_cast<size_t>(*rev)].AsDouble();
    EXPECT_LE(r, prev);
    prev = r;
  }
  EXPECT_EQ(plan.num_stages(), 4);
}

TEST(QueryRunnerTest, Q3TopRevenueMatchesReference) {
  // Reference: max revenue over qualifying orders.
  const Fixture& f = GetFixture();
  std::set<int64_t> segment_customers;
  for (const auto& row : f.db.customer.ToRows()) {
    if (row[3].AsString() == params::kQ3Segment) {
      segment_customers.insert(row[0].AsInt64());
    }
  }
  std::map<int64_t, bool> order_ok;
  for (const auto& row : f.db.orders.ToRows()) {
    order_ok[row[0].AsInt64()] =
        row[2].AsInt64() < params::kQ3Date &&
        segment_customers.count(row[1].AsInt64()) > 0;
  }
  std::map<int64_t, double> order_rev;
  for (const auto& row : f.db.lineitem.ToRows()) {
    if (!order_ok[row[0].AsInt64()]) continue;
    if (row[10].AsInt64() <= params::kQ3Date) continue;
    order_rev[row[0].AsInt64()] +=
        row[5].AsDouble() * (1.0 - row[6].AsDouble());
  }
  double max_rev = 0.0;
  for (const auto& [k, v] : order_rev) max_rev = std::max(max_rev, v);

  const StagePlan plan = MakeQ3StagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->result.num_rows(), 0u);
  const auto rev = result->result.schema.Find("revenue");
  EXPECT_NEAR(result->result.GetValue(0, static_cast<size_t>(*rev)).AsDouble(),
              max_rev, max_rev * 1e-9);
}

TEST(QueryRunnerTest, Q5MatchesReference) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->failures_injected, 0);
  EXPECT_EQ(result->recovery_executions, 0);
  const auto ref = ReferenceQ5(f.db);
  ASSERT_EQ(result->result.num_rows(), ref.size());
  for (const auto& row : result->result.ToRows()) {
    const auto it = ref.find(row[0].AsString());
    ASSERT_NE(it, ref.end()) << row[0].AsString();
    EXPECT_NEAR(row[1].AsDouble(), it->second,
                std::fabs(it->second) * 1e-9);
  }
}

TEST(QueryRunnerTest, Q5HasFigureNineStages) {
  // Fig. 9's five joins and the final aggregation, plus the global exchange
  // that broadcasts the customer side to every partition.
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ5StagePlan(f.pd);
  ASSERT_EQ(plan.num_stages(), 7);
  EXPECT_EQ(plan.stage(0).label, "Join1(R,N)");
  EXPECT_EQ(plan.stage(2).label, "Broadcast(RNC)");
  EXPECT_EQ(plan.stage(5).label, "Join5(RNCOL,S)");
  EXPECT_EQ(plan.stage(6).label, "Agg(nation)");
}

TEST(QueryRunnerTest, RejectsNullDatabase) {
  const Fixture& f = GetFixture();
  for (const auto make :
       {&MakeQ1StagePlan, &MakeQ3StagePlan, &MakeQ5StagePlan}) {
    const StagePlan plan = make(f.pd, ExecOptions{});
    EXPECT_FALSE(RunClean(plan, nullptr).ok()) << plan.name();
  }
}

TEST(QueryRunnerTest, ResultsIndependentOfPartitionCount) {
  const Fixture& f = GetFixture();
  auto pd2 = DistributeTpch(f.db, 2);
  ASSERT_TRUE(pd2.ok());
  const StagePlan p4 = MakeQ5StagePlan(f.pd);
  const StagePlan p2 = MakeQ5StagePlan(*pd2);
  auto a = RunClean(p4, &f.pd);
  auto b = RunClean(p2, &*pd2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->result.num_rows(), b->result.num_rows());
  for (size_t i = 0; i < a->result.num_rows(); ++i) {
    EXPECT_EQ(a->result.GetValue(i, 0), b->result.GetValue(i, 0));
    EXPECT_NEAR(a->result.GetValue(i, 1).AsDouble(),
                b->result.GetValue(i, 1).AsDouble(),
                std::fabs(a->result.GetValue(i, 1).AsDouble()) * 1e-9);
  }
}

TEST(CostCalibratorTest, BuildsDagPlanFromStages) {
  const Fixture& f = GetFixture();
  const StagePlan stages = MakeQ5StagePlan(f.pd);
  auto result = RunClean(stages, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  const cost::StorageMedium medium = cost::ExternalIscsiStorage();
  auto plan = BuildCalibratedPlan(stages, *result, medium, "q5-calibrated");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->name(), "q5-calibrated");
  EXPECT_TRUE(plan->Validate().ok());
  // The real stage DAG, not a chain: the executable plan's skeleton with
  // its inputs, operator types and global-stage constraints.
  const plan::Plan skeleton = stages.ToPlanSkeleton();
  ASSERT_EQ(plan->num_nodes(), skeleton.num_nodes());
  for (const auto& node : skeleton.nodes()) {
    const plan::PlanNode& cal = plan->node(node.id);
    EXPECT_EQ(cal.inputs, node.inputs) << node.label;
    EXPECT_TRUE(cal.type == node.type) << node.label;
    EXPECT_TRUE(cal.constraint == node.constraint) << node.label;
  }
  // tr(o) is the slowest successful attempt of the stage; tm(o) writes the
  // stage's measured output.
  for (int s = 0; s < stages.num_stages(); ++s) {
    double slowest = 0.0;
    for (const auto& rec : result->timeline.records) {
      if (rec.stage == s && !rec.killed) {
        slowest = std::max(slowest, rec.finish_seconds - rec.dispatch_seconds);
      }
    }
    const plan::PlanNode& node = plan->node(static_cast<plan::OpId>(s));
    EXPECT_DOUBLE_EQ(node.runtime_cost, slowest) << node.label;
    EXPECT_GT(node.runtime_cost, 0.0) << node.label;
    EXPECT_DOUBLE_EQ(node.output_rows,
                     static_cast<double>(
                         result->stage_output_rows[static_cast<size_t>(s)]));
    EXPECT_GT(node.row_width_bytes, 0.0) << node.label;
    EXPECT_DOUBLE_EQ(node.materialize_cost,
                     medium.WriteSeconds(node.output_rows,
                                         node.row_width_bytes));
  }
}

TEST(CostCalibratorTest, ScalePlanMultipliesCosts) {
  plan::PlanBuilder b("p");
  auto s = b.Scan("R", 100, 10, 2.0);
  b.Unary(plan::OpType::kHashAggregate, "agg", s, 4.0, 1.0);
  plan::Plan p = std::move(b).Build();
  plan::Plan scaled = ScaleCalibratedPlan(p, 10.0, 3.0);
  EXPECT_DOUBLE_EQ(scaled.node(0).runtime_cost, 20.0);
  EXPECT_DOUBLE_EQ(scaled.node(1).runtime_cost, 40.0);
  EXPECT_DOUBLE_EQ(scaled.node(1).materialize_cost, 3.0);
}

TEST(CostCalibratorTest, RejectsEmptyExecution) {
  // An execution that did not run the plan's stages, and a plan without
  // stages.
  const Fixture& f = GetFixture();
  const StagePlan stages = MakeQ1StagePlan(f.pd);
  EXPECT_FALSE(BuildCalibratedPlan(stages, FtExecutionResult{},
                                   cost::ExternalIscsiStorage(), "x")
                   .ok());
  EXPECT_FALSE(BuildCalibratedPlan(StagePlan("empty"), FtExecutionResult{},
                                   cost::ExternalIscsiStorage(), "x")
                   .ok());
}

}  // namespace
}  // namespace xdbft::engine
