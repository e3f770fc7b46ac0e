// FT-executor coverage for stages with multiple input edges: a join stage
// consuming two upstream partitioned stages, with failures that wipe one
// or both inputs on a node.
#include <gtest/gtest.h>

#include "engine/ft_executor.h"

namespace xdbft::engine {
namespace {

using exec::Expr;
using exec::Table;
using exec::Value;
using exec::ValueType;

struct Fixture {
  datagen::TpchDatabase db;
  PartitionedDatabase pd;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    datagen::TpchGenOptions opts;
    opts.scale_factor = 0.002;
    opts.seed = 55;
    auto db = datagen::GenerateTpch(opts);
    auto pd = DistributeTpch(*db, 3);
    return new Fixture{std::move(*db), std::move(*pd)};
  }();
  return *fixture;
}

// Stage DAG: (filterO, filterL) -> join -> global count.
StagePlan TwoInputPlan(const PartitionedDatabase& db) {
  StagePlan plan("two-input");
  const auto* orders = &db.table(catalog::TpchTable::kOrders);
  const auto* lineitem = &db.table(catalog::TpchTable::kLineitem);

  Stage fo;
  fo.label = "FilterO";
  fo.type = plan::OpType::kFilter;
  fo.run = [orders](int p, const std::vector<const Table*>&,
                    obs::QueryProfile*) -> Result<Table> {
    const Table& part = orders->partitions[static_cast<size_t>(p)];
    XDBFT_ASSIGN_OR_RETURN(auto odate,
                           Expr::Col(part.schema, "o_orderdate"));
    auto op = exec::MakeFilter(
        exec::MakeScan(&part),
        exec::Lt(odate, Expr::Lit(Value(int64_t{1200}))));
    return exec::Drain(op.get());
  };
  const int s_o = plan.AddStage(std::move(fo));

  Stage fl;
  fl.label = "FilterL";
  fl.type = plan::OpType::kFilter;
  fl.run = [lineitem](int p, const std::vector<const Table*>&,
                      obs::QueryProfile*) -> Result<Table> {
    const Table& part = lineitem->partitions[static_cast<size_t>(p)];
    XDBFT_ASSIGN_OR_RETURN(auto qty, Expr::Col(part.schema, "l_quantity"));
    auto op = exec::MakeFilter(
        exec::MakeScan(&part),
        exec::Ge(qty, Expr::Lit(Value(25.0))));
    return exec::Drain(op.get());
  };
  const int s_l = plan.AddStage(std::move(fl));

  Stage join;
  join.label = "Join(O,L)";
  join.type = plan::OpType::kHashJoin;
  join.inputs = {s_o, s_l};  // two same-partition edges
  join.run = [](int, const std::vector<const Table*>& inputs,
                 obs::QueryProfile*) -> Result<Table> {
    const Table& o = *inputs[0];
    const Table& l = *inputs[1];
    XDBFT_ASSIGN_OR_RETURN(const int okey, o.schema.Find("o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(const int lokey, l.schema.Find("l_orderkey"));
    auto op = exec::MakeHashJoin(exec::MakeScan(&o), exec::MakeScan(&l),
                                 {okey}, {lokey});
    return exec::Drain(op.get());
  };
  const int s_join = plan.AddStage(std::move(join));

  Stage count;
  count.label = "Count";
  count.type = plan::OpType::kHashAggregate;
  count.global = true;
  count.inputs = {s_join};
  count.run = [](int, const std::vector<const Table*>& inputs,
                  obs::QueryProfile*) -> Result<Table> {
    auto op = exec::MakeHashAggregate(
        exec::MakeScan(inputs[0]), {},
        {{exec::AggFunc::kCount, nullptr, "n"}});
    return exec::Drain(op.get());
  };
  plan.AddStage(std::move(count));
  return plan;
}

TEST(MultiInputStageTest, FailureFreeExecutes) {
  const Fixture& f = GetFixture();
  const StagePlan plan = TwoInputPlan(f.pd);
  ASSERT_TRUE(plan.Validate().ok());
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto r = executor.Execute(
      ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton()));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->result.num_rows(), 1u);
  EXPECT_GT(r->result.GetValue(0, 0).AsInt64(), 0);
}

TEST(MultiInputStageTest, JoinFailureRecomputesBothLostInputs) {
  const Fixture& f = GetFixture();
  const StagePlan plan = TwoInputPlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto clean = executor.Execute(ft::MaterializationConfig::AllMat(skeleton));
  ASSERT_TRUE(clean.ok());

  // Fail the join on partition 1 with nothing materialized: both filter
  // outputs of partition 1 are lost and must be recomputed.
  ScriptedInjector injector({{2, 1}});
  auto r = executor.Execute(ft::MaterializationConfig::NoMat(skeleton),
                            &injector);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->failures_injected, 1);
  EXPECT_EQ(r->recovery_executions, 3);  // killed attempt + 2 recomputes
  EXPECT_EQ(r->result.GetValue(0, 0).AsInt64(),
            clean->result.GetValue(0, 0).AsInt64());
}

TEST(MultiInputStageTest, MaterializingOneInputHalvesRecovery) {
  const Fixture& f = GetFixture();
  const StagePlan plan = TwoInputPlan(f.pd);
  const plan::Plan skeleton = plan.ToPlanSkeleton();
  FaultTolerantExecutor executor(&plan, &f.pd);
  auto config = ft::MaterializationConfig::NoMat(skeleton);
  config.set_materialized(0, true);  // FilterO survives failures
  ScriptedInjector injector({{2, 1}});
  auto r = executor.Execute(config, &injector);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->recovery_executions, 2);  // killed attempt + FilterL only
}

}  // namespace
}  // namespace xdbft::engine
