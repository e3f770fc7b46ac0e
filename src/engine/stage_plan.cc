#include "engine/stage_plan.h"

#include <chrono>

#include "common/string_util.h"
#include "datagen/tpch_gen.h"
#include "engine/query_runner.h"

namespace xdbft::engine {

using catalog::TpchTable;
using exec::AggFunc;
using exec::Expr;
using exec::Table;
using exec::Value;
using exec::VFilter;
using exec::VHashAggregate;
using exec::VHashJoin;
using exec::VProject;
using exec::VScan;
using exec::VSort;

int StagePlan::AddStage(Stage stage) {
  stages_.push_back(std::move(stage));
  return static_cast<int>(stages_.size()) - 1;
}

Status StagePlan::Validate() const {
  if (stages_.empty()) return Status::InvalidArgument("no stages");
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    if (!s.run) {
      return Status::InvalidArgument(
          StrFormat("stage %zu has no runnable", i));
    }
    for (const StageInput& in : s.inputs) {
      if (in.stage < 0 || in.stage >= static_cast<int>(i)) {
        return Status::InvalidArgument(
            StrFormat("stage %zu has invalid input %d", i, in.stage));
      }
      if (in.mode == EdgeMode::kShuffle && in.shuffle_key < 0) {
        return Status::InvalidArgument(
            StrFormat("stage %zu: shuffle edge needs a key column", i));
      }
    }
  }
  return Status::OK();
}

std::vector<std::pair<int, int>> StagePlan::TaskInputs(
    int stage, int slot, int num_partitions) const {
  std::vector<std::pair<int, int>> deps;
  const Stage& s = stages_[static_cast<size_t>(stage)];
  for (const StageInput& in : s.inputs) {
    const Stage& producer = stages_[static_cast<size_t>(in.stage)];
    if (producer.global) {
      deps.emplace_back(in.stage, 0);
    } else if (s.global || in.mode != EdgeMode::kSamePartition) {
      for (int q = 0; q < num_partitions; ++q) deps.emplace_back(in.stage, q);
    } else {
      deps.emplace_back(in.stage, slot);
    }
  }
  return deps;
}

plan::Plan StagePlan::ToPlanSkeleton() const {
  plan::Plan p(name_);
  for (const auto& s : stages_) {
    plan::PlanNode node;
    node.type = s.type;
    node.label = s.label;
    for (const StageInput& in : s.inputs) node.inputs.push_back(in.stage);
    node.runtime_cost = 0.0;
    node.materialize_cost = 0.0;
    if (s.global) {
      node.constraint = plan::MatConstraint::kAlwaysMaterialize;
    }
    p.AddNode(std::move(node));
  }
  return p;
}

namespace {

// Q2C part-type prefix filter via a lexicographic range (the generated
// p_type values start with one of six type words).
constexpr const char* kQ2TypePrefixLo = "STANDARD";
constexpr const char* kQ2TypePrefixHi = "STANDARE";  // prefix upper bound
// The two outer queries split parts by retail price.
constexpr double kQ2PriceSplit = 1400.0;

// Runs one stage task's plan on the engine selected by `opts`. Stage tasks
// execute inside the FT executor's pool, so morsel execution stays serial
// (ParallelForEach is not reentrant). With opts.profile set the plan runs
// instrumented and `profile` receives its EXPLAIN ANALYZE tree.
Result<Table> RunStageNode(const ExecOptions& opts,
                           const exec::VecNodePtr& plan,
                           obs::QueryProfile* profile) {
  const bool vectorized = opts.mode == ExecMode::kVectorized;
  obs::OperatorProfile* root = opts.profile ? &profile->root : nullptr;
  const auto start = std::chrono::steady_clock::now();
  Result<Table> result = Table{};
  if (vectorized) {
    exec::VecExecOptions vopts;
    vopts.morsel_rows = opts.morsel_rows;
    vopts.profile = root;
    result = exec::ExecuteVectorized(plan, vopts);
  } else {
    const exec::OperatorPtr op = exec::ToOperator(plan, root);
    result = exec::Drain(op.get());
  }
  if (root != nullptr) {
    profile->engine = vectorized ? "vectorized" : "row";
    profile->seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  }
  return result;
}

}  // namespace

StagePlan MakeQ1StagePlan(const PartitionedDatabase& db, ExecOptions opts) {
  StagePlan plan("Q1-stages");
  const auto* lineitem = &db.table(TpchTable::kLineitem);

  Stage partial;
  partial.label = "PartialAgg(L)";
  partial.type = plan::OpType::kHashAggregate;
  partial.run = [lineitem, opts](int partition,
                                 const std::vector<const Table*>&,
                                 obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& part =
        lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto shipdate,
                           Expr::Col(part.schema, "l_shipdate"));
    XDBFT_ASSIGN_OR_RETURN(auto qty, Expr::Col(part.schema, "l_quantity"));
    XDBFT_ASSIGN_OR_RETURN(auto price,
                           Expr::Col(part.schema, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(const int rf, part.schema.Find("l_returnflag"));
    XDBFT_ASSIGN_OR_RETURN(const int ls, part.schema.Find("l_linestatus"));
    auto node = VFilter(
        VScan(&part),
        exec::Le(shipdate, Expr::Lit(Value(params::kQ1ShipdateCutoff))));
    node = VHashAggregate(std::move(node), {rf, ls},
                          {{AggFunc::kSum, qty, "sum_qty"},
                           {AggFunc::kSum, price, "sum_price"},
                           {AggFunc::kCount, nullptr, "count_order"}});
    return RunStageNode(opts, node, profile);
  };
  const int s0 = plan.AddStage(std::move(partial));

  Stage merge;
  merge.label = "FinalAgg";
  merge.type = plan::OpType::kHashAggregate;
  merge.global = true;
  merge.inputs = {s0};
  merge.run = [opts](int, const std::vector<const Table*>& inputs,
                     obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto sum_qty,
                           Expr::Col(merged.schema, "sum_qty"));
    XDBFT_ASSIGN_OR_RETURN(auto sum_price,
                           Expr::Col(merged.schema, "sum_price"));
    XDBFT_ASSIGN_OR_RETURN(auto cnt,
                           Expr::Col(merged.schema, "count_order"));
    auto node = VHashAggregate(VScan(&merged), {0, 1},
                               {{AggFunc::kSum, sum_qty, "sum_qty"},
                                {AggFunc::kSum, sum_price, "sum_price"},
                                {AggFunc::kSum, cnt, "count_order"}});
    node = VSort(std::move(node), {0, 1}, {true, true});
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(merge));
  return plan;
}

StagePlan MakeQ3StagePlan(const PartitionedDatabase& db, ExecOptions opts) {
  StagePlan plan("Q3-stages");
  const auto* customer = &db.table(TpchTable::kCustomer);
  const auto* orders = &db.table(TpchTable::kOrders);
  const auto* lineitem = &db.table(TpchTable::kLineitem);

  // Stage 0: sigma(C) join sigma(O) on custkey. CUSTOMER is replicated
  // (RREF), ORDERS is the partitioned probe side.
  Stage co;
  co.label = "Join(C,O)";
  co.type = plan::OpType::kHashJoin;
  co.run = [customer, orders, opts](int partition,
                                    const std::vector<const Table*>&,
                                    obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& creplica =
        customer->partitions[static_cast<size_t>(partition)];
    const Table& opart = orders->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto seg,
                           Expr::Col(creplica.schema, "c_mktsegment"));
    XDBFT_ASSIGN_OR_RETURN(const int ckey,
                           creplica.schema.Find("c_custkey"));
    auto build = VFilter(VScan(&creplica),
                         exec::Eq(seg, Expr::Lit(Value(params::kQ3Segment))));
    XDBFT_ASSIGN_OR_RETURN(auto odate,
                           Expr::Col(opart.schema, "o_orderdate"));
    XDBFT_ASSIGN_OR_RETURN(const int okey_cust,
                           opart.schema.Find("o_custkey"));
    auto probe = VFilter(VScan(&opart),
                         exec::Lt(odate, Expr::Lit(Value(params::kQ3Date))));
    auto join =
        VHashJoin(std::move(build), std::move(probe), {ckey}, {okey_cust});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto okey, Expr::Col(js, "o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(auto odate2, Expr::Col(js, "o_orderdate"));
    auto proj = VProject(std::move(join), {okey, odate2},
                         {"o_orderkey", "o_orderdate"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_co = plan.AddStage(std::move(co));

  // Stage 1: join LINEITEM on orderkey (co-partitioned: local join).
  Stage col;
  col.label = "Join(CO,L)";
  col.type = plan::OpType::kHashJoin;
  col.inputs = {s_co};
  col.run = [lineitem, opts](int partition,
                             const std::vector<const Table*>& inputs,
                             obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& build_t = *inputs[0];
    const Table& lpart = lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int bokey,
                           build_t.schema.Find("o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(auto sdate,
                           Expr::Col(lpart.schema, "l_shipdate"));
    XDBFT_ASSIGN_OR_RETURN(const int lokey,
                           lpart.schema.Find("l_orderkey"));
    auto probe = VFilter(VScan(&lpart),
                         exec::Gt(sdate, Expr::Lit(Value(params::kQ3Date))));
    auto join =
        VHashJoin(VScan(&build_t), std::move(probe), {bokey}, {lokey});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto okey, Expr::Col(js, "l_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(auto odate, Expr::Col(js, "o_orderdate"));
    XDBFT_ASSIGN_OR_RETURN(auto price, Expr::Col(js, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(auto disc, Expr::Col(js, "l_discount"));
    auto revenue = price * (Expr::Lit(Value(1.0)) - disc);
    auto proj = VProject(std::move(join), {okey, odate, revenue},
                         {"o_orderkey", "o_orderdate", "revenue"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_col = plan.AddStage(std::move(col));

  // Stage 2: aggregate per orderkey (groups are partition-local thanks to
  // orderkey co-partitioning).
  Stage agg;
  agg.label = "Agg(orderkey)";
  agg.type = plan::OpType::kHashAggregate;
  agg.inputs = {s_col};
  agg.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& in = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto rev, Expr::Col(in.schema, "revenue"));
    auto node =
        VHashAggregate(VScan(&in), {0, 1}, {{AggFunc::kSum, rev, "revenue"}});
    return RunStageNode(opts, node, profile);
  };
  const int s_agg = plan.AddStage(std::move(agg));

  // Stage 3 (global): top-10 by revenue.
  Stage top;
  top.label = "TopK(revenue)";
  top.type = plan::OpType::kSort;
  top.global = true;
  top.inputs = {s_agg};
  top.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(const int rev, merged.schema.Find("revenue"));
    auto node = VSort(VScan(&merged), {rev}, {false}, 10);
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(top));
  return plan;
}

StagePlan MakeQ1CStagePlan(const PartitionedDatabase& db, ExecOptions opts) {
  StagePlan plan("Q1C-stages");
  const auto* lineitem = &db.table(TpchTable::kLineitem);

  // Stage 0: the inner aggregation's partials — price sum and count per
  // (returnflag, linestatus) within the shipdate window.
  Stage partial;
  partial.label = "PartialAgg(avg_price)";
  partial.type = plan::OpType::kHashAggregate;
  partial.run = [lineitem, opts](int partition,
                                 const std::vector<const Table*>&,
                                 obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& part = lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto shipdate,
                           Expr::Col(part.schema, "l_shipdate"));
    XDBFT_ASSIGN_OR_RETURN(auto price,
                           Expr::Col(part.schema, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(const int rf, part.schema.Find("l_returnflag"));
    XDBFT_ASSIGN_OR_RETURN(const int ls, part.schema.Find("l_linestatus"));
    auto node = VFilter(
        VScan(&part),
        exec::Le(shipdate, Expr::Lit(Value(params::kQ1ShipdateCutoff))));
    node = VHashAggregate(std::move(node), {rf, ls},
                          {{AggFunc::kSum, price, "sum_price"},
                           {AggFunc::kCount, nullptr, "cnt"}});
    return RunStageNode(opts, node, profile);
  };
  const int s_partial = plan.AddStage(std::move(partial));

  // Stage 1 (global): merge the partials into the tiny average table —
  // the mid-plan aggregation.
  Stage inner;
  inner.label = "InnerAgg(avg_price)";
  inner.type = plan::OpType::kHashAggregate;
  inner.global = true;
  inner.inputs = {s_partial};
  inner.run = [opts](int, const std::vector<const Table*>& inputs,
                     obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto sum_price,
                           Expr::Col(merged.schema, "sum_price"));
    XDBFT_ASSIGN_OR_RETURN(auto cnt, Expr::Col(merged.schema, "cnt"));
    auto agg = VHashAggregate(VScan(&merged), {0, 1},
                              {{AggFunc::kSum, sum_price, "sum_price"},
                               {AggFunc::kSum, cnt, "cnt"}});
    XDBFT_ASSIGN_OR_RETURN(auto sp2, Expr::Col(agg->schema, "sum_price"));
    XDBFT_ASSIGN_OR_RETURN(auto cnt2, Expr::Col(agg->schema, "cnt"));
    auto proj = VProject(std::move(agg),
                         {Expr::Col(0), Expr::Col(1), sp2 / cnt2},
                         {"g_returnflag", "g_linestatus", "avg_price"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_inner = plan.AddStage(std::move(inner));

  // Stage 2: re-join LINEITEM against the average table and keep items
  // priced above their group's average.
  Stage above;
  above.label = "Join(L,avg)";
  above.type = plan::OpType::kHashJoin;
  above.inputs = {s_inner};
  above.run = [lineitem, opts](int partition,
                               const std::vector<const Table*>& inputs,
                               obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& avg_table = *inputs[0];
    const Table& part = lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto shipdate,
                           Expr::Col(part.schema, "l_shipdate"));
    XDBFT_ASSIGN_OR_RETURN(const int rf, part.schema.Find("l_returnflag"));
    XDBFT_ASSIGN_OR_RETURN(const int ls, part.schema.Find("l_linestatus"));
    XDBFT_ASSIGN_OR_RETURN(const int grf,
                           avg_table.schema.Find("g_returnflag"));
    XDBFT_ASSIGN_OR_RETURN(const int gls,
                           avg_table.schema.Find("g_linestatus"));
    auto probe = VFilter(
        VScan(&part),
        exec::Le(shipdate, Expr::Lit(Value(params::kQ1ShipdateCutoff))));
    auto join = VHashJoin(VScan(&avg_table), std::move(probe), {grf, gls},
                          {rf, ls});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto price, Expr::Col(js, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(auto avg, Expr::Col(js, "avg_price"));
    auto filt = VFilter(std::move(join), exec::Gt(price, avg));
    const auto& fs = filt->schema;
    XDBFT_ASSIGN_OR_RETURN(auto rf2, Expr::Col(fs, "l_returnflag"));
    XDBFT_ASSIGN_OR_RETURN(auto ls2, Expr::Col(fs, "l_linestatus"));
    auto proj = VProject(std::move(filt), {rf2, ls2},
                         {"l_returnflag", "l_linestatus"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_above = plan.AddStage(std::move(above));

  // Stage 3 (global): count the above-average items per group.
  Stage count;
  count.label = "Agg(count_by_status)";
  count.type = plan::OpType::kHashAggregate;
  count.global = true;
  count.inputs = {s_above};
  count.run = [opts](int, const std::vector<const Table*>& inputs,
                     obs::QueryProfile* profile)
      -> Result<Table> {
    auto node = VHashAggregate(VScan(inputs[0]), {0, 1},
                               {{AggFunc::kCount, nullptr, "items"}});
    node = VSort(std::move(node), {0, 1}, {true, true});
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(count));
  return plan;
}

StagePlan MakeQ2CStagePlan(const PartitionedDatabase& db, ExecOptions opts) {
  StagePlan plan("Q2C-stages");
  const int n = db.num_nodes;
  const auto* part = &db.table(TpchTable::kPart);
  const auto* partsupp = &db.table(TpchTable::kPartSupp);

  // Stage 0: the CTE — min supplycost per filtered part. PART and PARTSUPP
  // are RREF-replicated; each partition handles its partkey slice, so the
  // min-groups are complete per partition.
  Stage cte;
  cte.label = "CTE(min_supplycost)";
  cte.type = plan::OpType::kHashAggregate;
  cte.run = [part, partsupp, n, opts](int partition,
                                      const std::vector<const Table*>&,
                                      obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& prep = part->partitions[static_cast<size_t>(partition)];
    const Table& psrep = partsupp->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int pkey_col, prep.schema.Find("p_partkey"));
    XDBFT_ASSIGN_OR_RETURN(
        const Table pslice, exec::HashSlice(prep, pkey_col, partition, n));
    XDBFT_ASSIGN_OR_RETURN(const int pskey_col,
                           psrep.schema.Find("ps_partkey"));
    XDBFT_ASSIGN_OR_RETURN(
        const Table psslice, exec::HashSlice(psrep, pskey_col, partition, n));
    XDBFT_ASSIGN_OR_RETURN(auto ptype, Expr::Col(pslice.schema, "p_type"));
    auto build = VFilter(
        VScan(&pslice),
        exec::And(exec::Ge(ptype, Expr::Lit(Value(kQ2TypePrefixLo))),
                  exec::Lt(ptype, Expr::Lit(Value(kQ2TypePrefixHi)))));
    auto join = VHashJoin(std::move(build), VScan(&psslice), {pkey_col},
                          {pskey_col});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(const int jpk, js.Find("ps_partkey"));
    XDBFT_ASSIGN_OR_RETURN(auto cost, Expr::Col(js, "ps_supplycost"));
    auto agg = VHashAggregate(std::move(join), {jpk},
                              {{AggFunc::kMin, cost, "min_cost"}});
    return RunStageNode(opts, agg, profile);
  };
  const int s_cte = plan.AddStage(std::move(cte));

  // Two outer queries with different price filters; each re-joins the CTE
  // with PARTSUPP (to find the min-cost supplier) and PART (for the price
  // filter), then keeps the top-100 cheapest globally.
  std::vector<int> tops;
  for (int outer = 1; outer <= 2; ++outer) {
    Stage match;
    match.label = StrFormat("Outer%dJoin", outer);
    match.type = plan::OpType::kHashJoin;
    match.inputs = {s_cte};
    match.run = [part, partsupp, n, outer, opts](
                    int partition, const std::vector<const Table*>& inputs,
                    obs::QueryProfile* profile) -> Result<Table> {
      const Table& cte_part = *inputs[0];
      const Table& psrep =
          partsupp->partitions[static_cast<size_t>(partition)];
      const Table& prep = part->partitions[static_cast<size_t>(partition)];
      XDBFT_ASSIGN_OR_RETURN(const int pskey_col,
                             psrep.schema.Find("ps_partkey"));
      XDBFT_ASSIGN_OR_RETURN(
          const Table psslice, exec::HashSlice(psrep, pskey_col, partition, n));
      XDBFT_ASSIGN_OR_RETURN(const int pkey_col,
                             prep.schema.Find("p_partkey"));
      XDBFT_ASSIGN_OR_RETURN(
          const Table pslice, exec::HashSlice(prep, pkey_col, partition, n));
      // (partkey, min_cost) = (ps_partkey, ps_supplycost).
      XDBFT_ASSIGN_OR_RETURN(const int ckey,
                             cte_part.schema.Find("ps_partkey"));
      XDBFT_ASSIGN_OR_RETURN(const int cmin,
                             cte_part.schema.Find("min_cost"));
      XDBFT_ASSIGN_OR_RETURN(const int pscost,
                             psslice.schema.Find("ps_supplycost"));
      auto join = VHashJoin(VScan(&cte_part), VScan(&psslice), {ckey, cmin},
                            {pskey_col, pscost});
      XDBFT_ASSIGN_OR_RETURN(const int jpk, join->schema.Find("ps_partkey"));
      auto pjoin =
          VHashJoin(std::move(join), VScan(&pslice), {jpk}, {pkey_col});
      XDBFT_ASSIGN_OR_RETURN(auto price,
                             Expr::Col(pjoin->schema, "p_retailprice"));
      auto pred = outer == 1
                      ? exec::Lt(price, Expr::Lit(Value(kQ2PriceSplit)))
                      : exec::Ge(price, Expr::Lit(Value(kQ2PriceSplit)));
      auto filt = VFilter(std::move(pjoin), pred);
      const auto& fs = filt->schema;
      XDBFT_ASSIGN_OR_RETURN(auto pk2, Expr::Col(fs, "p_partkey"));
      XDBFT_ASSIGN_OR_RETURN(auto sk, Expr::Col(fs, "ps_suppkey"));
      XDBFT_ASSIGN_OR_RETURN(auto mc, Expr::Col(fs, "min_cost"));
      auto proj = VProject(std::move(filt), {pk2, sk, mc},
                           {"p_partkey", "ps_suppkey", "min_cost"});
      return RunStageNode(opts, proj, profile);
    };
    const int s_match = plan.AddStage(std::move(match));

    Stage top;
    top.label = StrFormat("Outer%dTopK", outer);
    top.type = plan::OpType::kSort;
    top.global = true;
    top.inputs = {s_match};
    top.run = [opts](int, const std::vector<const Table*>& inputs,
                     obs::QueryProfile* profile)
        -> Result<Table> {
      const Table& merged = *inputs[0];
      XDBFT_ASSIGN_OR_RETURN(const int mc, merged.schema.Find("min_cost"));
      auto node = VSort(VScan(&merged), {mc}, {true}, 100);
      return RunStageNode(opts, node, profile);
    };
    tops.push_back(plan.AddStage(std::move(top)));
  }

  // Final global stage: outer 1's rows, then outer 2's.
  Stage both;
  both.label = "Union(Outer1,Outer2)";
  both.type = plan::OpType::kUnion;
  both.global = true;
  both.inputs = {tops[0], tops[1]};
  both.run = [](int, const std::vector<const Table*>& inputs,
                obs::QueryProfile*)
      -> Result<Table> {
    Table out = *inputs[0];
    out.Append(*inputs[1]);
    return out;
  };
  plan.AddStage(std::move(both));
  return plan;
}

StagePlan MakeCustomerRevenueStagePlan(const PartitionedDatabase& db,
                                       ExecOptions opts) {
  StagePlan plan("customer-revenue");
  const auto* orders = &db.table(TpchTable::kOrders);
  const auto* lineitem = &db.table(TpchTable::kLineitem);

  // Stage 0: LINEITEM join ORDERS on orderkey (co-partitioned, local),
  // projecting (o_custkey, revenue).
  Stage join;
  join.label = "Join(L,O)";
  join.type = plan::OpType::kHashJoin;
  join.run = [orders, lineitem, opts](int partition,
                                      const std::vector<const Table*>&,
                                      obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& opart = orders->partitions[static_cast<size_t>(partition)];
    const Table& lpart =
        lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int okey, opart.schema.Find("o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(const int lokey,
                           lpart.schema.Find("l_orderkey"));
    auto j = VHashJoin(VScan(&opart), VScan(&lpart), {okey}, {lokey});
    const auto& js = j->schema;
    XDBFT_ASSIGN_OR_RETURN(auto ckey, Expr::Col(js, "o_custkey"));
    XDBFT_ASSIGN_OR_RETURN(auto price, Expr::Col(js, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(auto disc, Expr::Col(js, "l_discount"));
    auto revenue = price * (Expr::Lit(Value(1.0)) - disc);
    auto proj = VProject(std::move(j), {ckey, revenue},
                         {"o_custkey", "revenue"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_join = plan.AddStage(std::move(join));

  // Stage 1: shuffle on custkey (column 0 of stage 0's output), then
  // aggregate — each partition owns a disjoint custkey range, so the
  // groups are complete.
  Stage agg;
  agg.label = "ShuffleAgg(custkey)";
  agg.type = plan::OpType::kHashAggregate;
  agg.inputs = {StageInput(s_join, EdgeMode::kShuffle, /*key=*/0)};
  agg.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& in = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto rev, Expr::Col(in.schema, "revenue"));
    auto node = VHashAggregate(VScan(&in), {0},
                               {{AggFunc::kSum, rev, "revenue"}});
    return RunStageNode(opts, node, profile);
  };
  const int s_agg = plan.AddStage(std::move(agg));

  // Stage 2 (global): top-10 customers by revenue.
  Stage top;
  top.label = "TopK(revenue)";
  top.type = plan::OpType::kSort;
  top.global = true;
  top.inputs = {s_agg};
  top.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(const int rev, merged.schema.Find("revenue"));
    auto node = VSort(VScan(&merged), {rev}, {false}, 10);
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(top));
  return plan;
}

StagePlan MakeFilterChainStagePlan(const PartitionedDatabase& db, int depth,
                                   ExecOptions opts) {
  StagePlan plan("filter-chain");
  const auto* lineitem = &db.table(TpchTable::kLineitem);

  // Stage 0: scan + project the two columns the chain consumes.
  Stage scan;
  scan.label = "ScanProject(L)";
  scan.type = plan::OpType::kTableScan;
  scan.run = [lineitem, opts](int partition,
                              const std::vector<const Table*>&,
                              obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& part =
        lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto qty, Expr::Col(part.schema, "l_quantity"));
    XDBFT_ASSIGN_OR_RETURN(auto price,
                           Expr::Col(part.schema, "l_extendedprice"));
    auto proj = VProject(VScan(&part), {qty, price},
                         {"l_quantity", "l_extendedprice"});
    return RunStageNode(opts, proj, profile);
  };
  int prev = plan.AddStage(std::move(scan));

  // Chain stages: each trims the quantity range a little further, so
  // every intermediate stays bulky (the WAL-relevant shape).
  for (int i = 0; i < depth; ++i) {
    Stage f;
    f.label = "Filter" + StrFormat("%d", i);
    f.type = plan::OpType::kFilter;
    f.inputs = {prev};
    const double cutoff = 50.0 - 1.0 * i;
    f.run = [cutoff, opts](int, const std::vector<const Table*>& inputs,
                           obs::QueryProfile* profile)
        -> Result<Table> {
      const Table& in = *inputs[0];
      XDBFT_ASSIGN_OR_RETURN(auto qty, Expr::Col(in.schema, "l_quantity"));
      auto node =
          VFilter(VScan(&in), exec::Le(qty, Expr::Lit(Value(cutoff))));
      return RunStageNode(opts, node, profile);
    };
    prev = plan.AddStage(std::move(f));
  }

  // Final global stage: revenue per surviving quantity value, sorted.
  Stage agg;
  agg.label = "Agg(quantity)";
  agg.type = plan::OpType::kHashAggregate;
  agg.global = true;
  agg.inputs = {prev};
  agg.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto price,
                           Expr::Col(merged.schema, "l_extendedprice"));
    auto node = VHashAggregate(VScan(&merged), {0},
                               {{AggFunc::kSum, price, "revenue"},
                                {AggFunc::kCount, nullptr, "cnt"}});
    node = VSort(std::move(node), {0}, {true});
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(agg));
  return plan;
}

StagePlan MakeQ5StagePlan(const PartitionedDatabase& db, ExecOptions opts) {
  StagePlan plan("Q5-stages");
  const int n = db.num_nodes;
  const auto* region = &db.table(TpchTable::kRegion);
  const auto* nation = &db.table(TpchTable::kNation);
  const auto* customer = &db.table(TpchTable::kCustomer);
  const auto* orders = &db.table(TpchTable::kOrders);
  const auto* lineitem = &db.table(TpchTable::kLineitem);
  const auto* supplier = &db.table(TpchTable::kSupplier);

  // Stage 0 (global): sigma(R) join N.
  Stage rn;
  rn.label = "Join1(R,N)";
  rn.type = plan::OpType::kHashJoin;
  rn.global = true;
  rn.run = [region, nation, opts](int, const std::vector<const Table*>&,
                                  obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& rrep = region->partitions[0];
    const Table& nrep = nation->partitions[0];
    XDBFT_ASSIGN_OR_RETURN(auto rkey, Expr::Col(rrep.schema,
                                                "r_regionkey"));
    auto build = VFilter(
        VScan(&rrep),
        exec::Eq(rkey, Expr::Lit(Value(params::kQ5Region))));
    XDBFT_ASSIGN_OR_RETURN(const int rk, rrep.schema.Find("r_regionkey"));
    XDBFT_ASSIGN_OR_RETURN(const int nrk, nrep.schema.Find("n_regionkey"));
    auto join = VHashJoin(std::move(build), VScan(&nrep), {rk}, {nrk});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto nkey, Expr::Col(js, "n_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(auto nname, Expr::Col(js, "n_name"));
    auto proj = VProject(std::move(join), {nkey, nname},
                         {"n_nationkey", "n_name"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_rn = plan.AddStage(std::move(rn));

  // Stage 1: join CUSTOMER slice on nationkey.
  Stage rnc;
  rnc.label = "Join2(RN,C)";
  rnc.type = plan::OpType::kHashJoin;
  rnc.inputs = {s_rn};
  rnc.run = [customer, n, opts](int partition,
                                const std::vector<const Table*>& inputs,
                                obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& rn_table = *inputs[0];
    const Table& crep = customer->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int ckey_col,
                           crep.schema.Find("c_custkey"));
    XDBFT_ASSIGN_OR_RETURN(
        const Table cslice, exec::HashSlice(crep, ckey_col, partition, n));
    XDBFT_ASSIGN_OR_RETURN(const int nk,
                           rn_table.schema.Find("n_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(const int cnk, cslice.schema.Find("c_nationkey"));
    auto join = VHashJoin(VScan(&rn_table), VScan(&cslice), {nk}, {cnk});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto ckey, Expr::Col(js, "c_custkey"));
    XDBFT_ASSIGN_OR_RETURN(auto cnat, Expr::Col(js, "c_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(auto nname, Expr::Col(js, "n_name"));
    auto proj = VProject(std::move(join), {ckey, cnat, nname},
                         {"c_custkey", "c_nationkey", "n_name"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_rnc = plan.AddStage(std::move(rnc));

  // Stage 2 (global): broadcast/exchange of the customer side.
  Stage bcast;
  bcast.label = "Broadcast(RNC)";
  bcast.type = plan::OpType::kRepartition;
  bcast.global = true;
  bcast.inputs = {s_rnc};
  bcast.run = [](int, const std::vector<const Table*>& inputs,
                 obs::QueryProfile*)
      -> Result<Table> {
    return *inputs[0];  // concatenation already done by the executor
  };
  const int s_bcast = plan.AddStage(std::move(bcast));

  // Stage 3: join sigma(ORDERS) on custkey.
  Stage rnco;
  rnco.label = "Join3(RNC,O)";
  rnco.type = plan::OpType::kHashJoin;
  rnco.inputs = {s_bcast};
  rnco.run = [orders, opts](int partition,
                            const std::vector<const Table*>& inputs,
                            obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& rnc_all = *inputs[0];
    const Table& opart = orders->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(auto odate,
                           Expr::Col(opart.schema, "o_orderdate"));
    auto probe = VFilter(
        VScan(&opart),
        exec::And(
            exec::Ge(odate, Expr::Lit(Value(params::kQ5YearStart))),
            exec::Lt(odate, Expr::Lit(Value(params::kQ5YearEnd)))));
    XDBFT_ASSIGN_OR_RETURN(const int bkey,
                           rnc_all.schema.Find("c_custkey"));
    XDBFT_ASSIGN_OR_RETURN(const int pkey, opart.schema.Find("o_custkey"));
    auto join = VHashJoin(VScan(&rnc_all), std::move(probe), {bkey},
                          {pkey});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto okey, Expr::Col(js, "o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(auto cnat, Expr::Col(js, "c_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(auto nname, Expr::Col(js, "n_name"));
    auto proj = VProject(std::move(join), {okey, cnat, nname},
                         {"o_orderkey", "c_nationkey", "n_name"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_rnco = plan.AddStage(std::move(rnco));

  // Stage 4: join LINEITEM on orderkey (co-partitioned).
  Stage rncol;
  rncol.label = "Join4(RNCO,L)";
  rncol.type = plan::OpType::kHashJoin;
  rncol.inputs = {s_rnco};
  rncol.run = [lineitem, opts](int partition,
                               const std::vector<const Table*>& inputs,
                               obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& build_t = *inputs[0];
    const Table& lpart =
        lineitem->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int bokey,
                           build_t.schema.Find("o_orderkey"));
    XDBFT_ASSIGN_OR_RETURN(const int lokey,
                           lpart.schema.Find("l_orderkey"));
    auto join = VHashJoin(VScan(&build_t), VScan(&lpart), {bokey},
                          {lokey});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto skey, Expr::Col(js, "l_suppkey"));
    XDBFT_ASSIGN_OR_RETURN(auto price, Expr::Col(js, "l_extendedprice"));
    XDBFT_ASSIGN_OR_RETURN(auto disc, Expr::Col(js, "l_discount"));
    XDBFT_ASSIGN_OR_RETURN(auto cnat, Expr::Col(js, "c_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(auto nname, Expr::Col(js, "n_name"));
    auto revenue = price * (Expr::Lit(Value(1.0)) - disc);
    auto proj = VProject(std::move(join), {skey, cnat, nname, revenue},
                         {"l_suppkey", "c_nationkey", "n_name",
                          "revenue"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_rncol = plan.AddStage(std::move(rncol));

  // Stage 5: join SUPPLIER + nation filter.
  Stage rncols;
  rncols.label = "Join5(RNCOL,S)";
  rncols.type = plan::OpType::kHashJoin;
  rncols.inputs = {s_rncol};
  rncols.run = [supplier, opts](int partition,
                                const std::vector<const Table*>& inputs,
                                obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& probe_t = *inputs[0];
    const Table& srep =
        supplier->partitions[static_cast<size_t>(partition)];
    XDBFT_ASSIGN_OR_RETURN(const int skey, srep.schema.Find("s_suppkey"));
    XDBFT_ASSIGN_OR_RETURN(const int pkey,
                           probe_t.schema.Find("l_suppkey"));
    auto join = VHashJoin(VScan(&srep), VScan(&probe_t), {skey}, {pkey});
    const auto& js = join->schema;
    XDBFT_ASSIGN_OR_RETURN(auto snat, Expr::Col(js, "s_nationkey"));
    XDBFT_ASSIGN_OR_RETURN(auto cnat, Expr::Col(js, "c_nationkey"));
    auto filt = VFilter(std::move(join), exec::Eq(snat, cnat));
    const auto& fs = filt->schema;
    XDBFT_ASSIGN_OR_RETURN(auto nname, Expr::Col(fs, "n_name"));
    XDBFT_ASSIGN_OR_RETURN(auto rev, Expr::Col(fs, "revenue"));
    auto proj = VProject(std::move(filt), {nname, rev},
                         {"n_name", "revenue"});
    return RunStageNode(opts, proj, profile);
  };
  const int s_rncols = plan.AddStage(std::move(rncols));

  // Stage 6 (global): final aggregation by nation.
  Stage agg;
  agg.label = "Agg(nation)";
  agg.type = plan::OpType::kHashAggregate;
  agg.global = true;
  agg.inputs = {s_rncols};
  agg.run = [opts](int, const std::vector<const Table*>& inputs,
                   obs::QueryProfile* profile)
      -> Result<Table> {
    const Table& merged = *inputs[0];
    XDBFT_ASSIGN_OR_RETURN(auto rev, Expr::Col(merged.schema, "revenue"));
    auto node = VHashAggregate(VScan(&merged), {0},
                               {{AggFunc::kSum, rev, "revenue"}});
    XDBFT_ASSIGN_OR_RETURN(const int revc, node->schema.Find("revenue"));
    node = VSort(std::move(node), {revc}, {false});
    return RunStageNode(opts, node, profile);
  };
  plan.AddStage(std::move(agg));
  return plan;
}

}  // namespace xdbft::engine
