// The paper's complex queries (§5.2) as stage plans: Q1C with an
// aggregation in the middle of the plan, Q2C a DAG whose CTE feeds two
// outer queries. Failure-free runs are checked against single-node
// reference computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "engine/cost_calibrator.h"
#include "engine/ft_executor.h"
#include "engine/query_runner.h"

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
    opts.seed = 777;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

Result<FtExecutionResult> RunClean(const StagePlan& plan,
                                   const PartitionedDatabase* db) {
  FaultTolerantExecutor executor(&plan, db);
  return executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
}

// Q1C reference: per (returnflag, linestatus), count items above the
// group's average extended price (within the shipdate window).
std::map<std::pair<std::string, std::string>, int64_t> ReferenceQ1C(
    const datagen::TpchDatabase& db) {
  std::map<std::pair<std::string, std::string>, std::pair<double, int64_t>>
      sums;
  for (const auto& row : db.lineitem.ToRows()) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    auto& [sum, cnt] = sums[{row[8].AsString(), row[9].AsString()}];
    sum += row[5].AsDouble();
    ++cnt;
  }
  std::map<std::pair<std::string, std::string>, int64_t> counts;
  for (const auto& row : db.lineitem.ToRows()) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    const auto key = std::make_pair(row[8].AsString(), row[9].AsString());
    const auto& [sum, cnt] = sums[key];
    if (row[5].AsDouble() > sum / static_cast<double>(cnt)) ++counts[key];
  }
  return counts;
}

TEST(Q1CTest, MatchesReference) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1CStagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto ref = ReferenceQ1C(f.db);
  ASSERT_EQ(result->result.num_rows(), ref.size());
  for (const auto& row : result->result.ToRows()) {
    const auto it = ref.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(row[2].AsInt64(), it->second);
  }
}

TEST(Q1CTest, HasAggregationInTheMiddle) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ1CStagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(plan.num_stages(), 4);
  EXPECT_EQ(plan.stage(1).label, "InnerAgg(avg_price)");
  EXPECT_EQ(plan.stage(2).inputs[0].stage, 1);
  // The mid-plan aggregation output is tiny — the paper's cheap
  // checkpoint.
  const std::vector<size_t>& rows = result->stage_output_rows;
  EXPECT_LT(rows[1], 10u);
  EXPECT_GT(rows[2], 100 * rows[1]);
}

// Q2C reference: min supplycost per part of the filtered type; outer i
// keeps (part, supplier) pairs achieving the min, split by retail price.
struct Q2CReference {
  std::set<std::pair<int64_t, int64_t>> outer1;  // (partkey, suppkey)
  std::set<std::pair<int64_t, int64_t>> outer2;
};

Q2CReference ReferenceQ2C(const datagen::TpchDatabase& db) {
  std::map<int64_t, std::pair<std::string, double>> part_info;
  for (const auto& row : db.part.ToRows()) {
    part_info[row[0].AsInt64()] = {row[2].AsString(), row[3].AsDouble()};
  }
  std::map<int64_t, double> min_cost;
  for (const auto& row : db.partsupp.ToRows()) {
    const auto& [type, price] = part_info[row[0].AsInt64()];
    if (type < "STANDARD" || type >= "STANDARE") continue;
    auto it = min_cost.find(row[0].AsInt64());
    if (it == min_cost.end() || row[2].AsDouble() < it->second) {
      min_cost[row[0].AsInt64()] = row[2].AsDouble();
    }
  }
  Q2CReference ref;
  for (const auto& row : db.partsupp.ToRows()) {
    const auto it = min_cost.find(row[0].AsInt64());
    if (it == min_cost.end() || row[2].AsDouble() != it->second) continue;
    const double price = part_info[row[0].AsInt64()].second;
    auto& target = price < 1400.0 ? ref.outer1 : ref.outer2;
    target.insert({row[0].AsInt64(), row[1].AsInt64()});
  }
  return ref;
}

// Q2C stages: the CTE, then per outer query a partitioned join and a
// global top-100, then the union.
constexpr size_t kOuter1TopK = 2;
constexpr size_t kOuter2TopK = 4;

TEST(Q2CTest, ResultsAreMinCostPairs) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ2CStagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  const Q2CReference ref = ReferenceQ2C(f.db);
  ASSERT_EQ(plan.num_stages(), 6);
  EXPECT_EQ(plan.stage(kOuter1TopK).label, "Outer1TopK");
  EXPECT_EQ(plan.stage(kOuter2TopK).label, "Outer2TopK");
  // Outer results are capped at 100 rows each and must be subsets of the
  // reference pair sets.
  const size_t n1 = result->stage_output_rows[kOuter1TopK];
  const size_t n2 = result->stage_output_rows[kOuter2TopK];
  EXPECT_EQ(n1, std::min<size_t>(100, ref.outer1.size()));
  EXPECT_EQ(n2, std::min<size_t>(100, ref.outer2.size()));
  ASSERT_EQ(result->result.num_rows(), n1 + n2);
  for (size_t i = 0; i < result->result.num_rows(); ++i) {
    const auto& row = result->result.GetRow(i);
    const std::pair<int64_t, int64_t> pair = {row[0].AsInt64(),
                                              row[1].AsInt64()};
    if (i < n1) {
      EXPECT_TRUE(ref.outer1.count(pair)) << i;
    } else {
      EXPECT_TRUE(ref.outer2.count(pair)) << i;
    }
  }
}

TEST(Q2CTest, OuterResultsSortedBySupplycost) {
  const Fixture& f = GetFixture();
  const StagePlan plan = MakeQ2CStagePlan(f.pd);
  auto result = RunClean(plan, &f.pd);
  ASSERT_TRUE(result.ok());
  const size_t n1 = result->stage_output_rows[kOuter1TopK];
  double prev = -1.0;
  for (size_t i = 0; i < n1; ++i) {
    const double c = result->result.GetValue(i, 2).AsDouble();
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Q2CTest, CalibratedPlanKeepsTheSharedCte) {
  const Fixture& f = GetFixture();
  const StagePlan stages = MakeQ2CStagePlan(f.pd);
  auto result = RunClean(stages, &f.pd);
  ASSERT_TRUE(result.ok()) << result.status();
  auto plan = BuildCalibratedPlan(stages, *result,
                                  cost::ExternalIscsiStorage(), "q2c");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->node(0).label, "CTE(min_supplycost)");
  int cte_consumers = 0;
  for (const auto& node : plan->nodes()) {
    cte_consumers += static_cast<int>(
        std::count(node.inputs.begin(), node.inputs.end(), plan::OpId{0}));
    EXPECT_GT(node.runtime_cost, 0.0) << node.label;
  }
  EXPECT_EQ(cte_consumers, 2);
}

TEST(ComplexQueriesTest, ResultsIndependentOfPartitionCount) {
  const Fixture& f = GetFixture();
  auto pd1 = DistributeTpch(f.db, 1);
  ASSERT_TRUE(pd1.ok());
  const StagePlan pn = MakeQ1CStagePlan(f.pd);
  const StagePlan p1 = MakeQ1CStagePlan(*pd1);
  auto an = RunClean(pn, &f.pd);
  auto a1 = RunClean(p1, &*pd1);
  ASSERT_TRUE(an.ok());
  ASSERT_TRUE(a1.ok());
  ASSERT_EQ(an->result.num_rows(), a1->result.num_rows());
  for (size_t i = 0; i < an->result.num_rows(); ++i) {
    EXPECT_TRUE(exec::RowEq{}(an->result.GetRow(i), a1->result.GetRow(i)));
  }
}

TEST(ComplexQueriesTest, RejectNullDatabase) {
  const Fixture& f = GetFixture();
  for (const auto make : {&MakeQ1CStagePlan, &MakeQ2CStagePlan}) {
    const StagePlan plan = make(f.pd, ExecOptions{});
    EXPECT_FALSE(RunClean(plan, nullptr).ok()) << plan.name();
  }
}

}  // namespace
}  // namespace xdbft::engine
