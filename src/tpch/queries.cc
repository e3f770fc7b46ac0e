#include "tpch/queries.h"

#include <algorithm>

namespace xdbft::tpch {

using catalog::TpchCatalog;
using catalog::TpchTable;
using plan::MatConstraint;
using plan::OpId;
using plan::OpType;
using plan::Plan;

const char* TpchQueryName(TpchQuery q) {
  switch (q) {
    case TpchQuery::kQ1:
      return "Q1";
    case TpchQuery::kQ3:
      return "Q3";
    case TpchQuery::kQ5:
      return "Q5";
    case TpchQuery::kQ1C:
      return "Q1C";
    case TpchQuery::kQ2C:
      return "Q2C";
  }
  return "?";
}

std::vector<TpchQuery> AllQueries() {
  return {TpchQuery::kQ1, TpchQuery::kQ3, TpchQuery::kQ5, TpchQuery::kQ1C,
          TpchQuery::kQ2C};
}

Status TpchPlanConfig::Validate() const {
  if (!(scale_factor > 0.0)) {
    return Status::InvalidArgument("scale_factor must be positive");
  }
  if (num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  for (double r : {scan_rows_per_sec, probe_rows_per_sec,
                   build_rows_per_sec, agg_rows_per_sec,
                   output_rows_per_sec, storage_bandwidth_bps}) {
    if (!(r > 0.0)) {
      return Status::InvalidArgument("rates must be positive");
    }
  }
  if (!(q5_order_selectivity > 0.0) || q5_order_selectivity > 1.0) {
    return Status::InvalidArgument("q5_order_selectivity must be in (0,1]");
  }
  return Status::OK();
}

namespace {

// Assembles a TPC-H plan: computes tr(o)/tm(o) with the cost formulas of
// the config's PhysicalCostParams, and marks scans as bound (base tables
// are persistent; re-scanning is the recovery path).
class QueryAssembler {
 public:
  QueryAssembler(std::string name, const TpchPlanConfig& cfg)
      : cfg_(cfg), cat_(cfg.scale_factor), builder_(std::move(name)) {}

  double nodes() const { return static_cast<double>(cfg_.num_nodes); }

  double Rows(TpchTable t) const { return cat_.Rows(t); }

  OpId Scan(TpchTable t, double selectivity = 1.0) {
    const double base_rows = cat_.Rows(t);
    const double out_rows = base_rows * selectivity;
    plan::PlanNode n;
    n.type = OpType::kTableScan;
    n.label = selectivity < 1.0
                  ? std::string("Scan(s:") + catalog::TpchTableName(t) + ")"
                  : std::string("Scan(") + catalog::TpchTableName(t) + ")";
    n.runtime_cost = cfg_.ScanCost(base_rows);
    n.materialize_cost = cfg_.MatCost(out_rows, cat_.info(t).row_width_bytes);
    n.output_rows = out_rows;
    n.row_width_bytes = cat_.info(t).row_width_bytes;
    n.constraint = MatConstraint::kNeverMaterialize;
    return builder_.plan().AddNode(std::move(n));
  }

  /// Scale factors for "measured" operator profiles (reference point:
  /// SF = 100 on 10 nodes with the default storage bandwidth). Runtime
  /// scales linearly with SF and inversely with the node count;
  /// materialization scales linearly with SF and inversely with the
  /// shared storage bandwidth.
  double RuntimeScale() const {
    return cfg_.scale_factor / 100.0 * 10.0 / nodes();
  }
  double MatScale() const {
    return cfg_.scale_factor / 100.0 *
           optimizer::PhysicalCostParams{}.storage_bandwidth_bps /
           cfg_.storage_bandwidth_bps;
  }

  /// Adds an operator with measured statistics: tr_ref/tm_ref are the
  /// paper-testbed-calibrated costs at the reference point (seconds).
  OpId Measured(OpType type, const std::string& label,
                std::vector<OpId> inputs, double tr_ref, double tm_ref,
                double out_rows, double out_width,
                bool scale_runtime = true, bool scale_mat = true) {
    const double tr =
        tr_ref * (scale_runtime ? RuntimeScale() : 10.0 / nodes());
    const double tm = tm_ref * (scale_mat ? MatScale() : 1.0);
    plan::PlanNode n;
    n.type = type;
    n.label = label;
    n.inputs = std::move(inputs);
    n.runtime_cost = tr;
    n.materialize_cost = tm;
    n.output_rows = out_rows;
    n.row_width_bytes = out_width;
    if (type == OpType::kTableScan) {
      n.constraint = MatConstraint::kNeverMaterialize;
    }
    return builder_.plan().AddNode(std::move(n));
  }

  OpId Join(const std::string& label, OpId left, OpId right, double out_rows,
            double out_width) {
    const double tr = cfg_.JoinCost(builder_.plan().node(left).output_rows,
                                    builder_.plan().node(right).output_rows,
                                    out_rows);
    return builder_.Binary(OpType::kHashJoin, label, left, right, tr,
                           cfg_.MatCost(out_rows, out_width), out_rows,
                           out_width);
  }

  // A hash aggregation, or with type kSort a sort, which runs at the
  // aggregation rate.
  OpId Aggregate(const std::string& label, OpId input, double out_rows,
                 double out_width, OpType type = OpType::kHashAggregate) {
    const double tr =
        cfg_.AggregateCost(builder_.plan().node(input).output_rows);
    return builder_.Unary(type, label, input, tr,
                          cfg_.MatCost(out_rows, out_width), out_rows,
                          out_width);
  }

  Plan Finish() && { return std::move(builder_).Build(); }

 private:
  const TpchPlanConfig& cfg_;
  TpchCatalog cat_;
  plan::PlanBuilder builder_;
};

// Q1: full LINEITEM scan with a 98%-selective shipdate predicate feeding a
// grand aggregation. No joins and no free operator (the scan is bound and
// the aggregation is the sink).
Plan BuildQ1(const TpchPlanConfig& cfg) {
  QueryAssembler a("Q1", cfg);
  const double sel = TpchCatalog::LineitemShipdateQ1Selectivity();
  const OpId scan = a.Scan(TpchTable::kLineitem, sel);
  a.Aggregate("Agg(returnflag,linestatus)", scan, 4, 144);
  return std::move(a).Finish();
}

// Q3: CUSTOMER x ORDERS x LINEITEM (3-way join), aggregation, top-k sort.
//
// Operator statistics are *measured profiles* (like the paper's perfect
// cost estimates, §5.1): per-operator tr/tm calibrated at the reference
// point SF=100 / 10 nodes so that the baseline (~570 s), the total
// materialization share (~22%, "moderate" per §5.2) and the re-execution
// granularity match the paper's testbed measurements.
Plan BuildQ3(const TpchPlanConfig& cfg) {
  QueryAssembler a("Q3", cfg);
  const OpId c = a.Measured(OpType::kTableScan, "Scan(s:CUSTOMER)", {},
                            2.0, 0.0,
                            a.Rows(TpchTable::kCustomer) *
                                TpchCatalog::Q3SegmentSelectivity(),
                            180);
  const OpId o = a.Measured(OpType::kTableScan, "Scan(s:ORDERS)", {}, 5.0,
                            0.0,
                            a.Rows(TpchTable::kOrders) *
                                TpchCatalog::Q3DateSelectivity(),
                            128);
  const OpId l = a.Measured(OpType::kTableScan, "Scan(s:LINEITEM)", {},
                            8.0, 0.0, a.Rows(TpchTable::kLineitem) * 0.54,
                            120);
  // sigma(C) join sigma(O) on custkey keeps the filtered orders of the 20%
  // customer segment; Q3 projects few columns, so intermediates are narrow.
  const double j1_rows = a.Rows(TpchTable::kOrders) *
                         TpchCatalog::Q3DateSelectivity() *
                         TpchCatalog::Q3SegmentSelectivity();
  const OpId j1 = a.Measured(OpType::kHashJoin, "Join(C,O)", {c, o}, 170.0,
                             40.0, j1_rows, 40);
  const double j2_rows = j1_rows * 4.0 * 0.54;
  const OpId j2 = a.Measured(OpType::kHashJoin, "Join(CO,L)", {j1, l},
                             180.0, 60.0, j2_rows, 48);
  const double groups = j2_rows * 0.45;  // distinct orderkeys
  const OpId agg = a.Measured(OpType::kHashAggregate, "Agg(orderkey)",
                              {j2}, 200.0, 25.0, groups, 48);
  a.Measured(OpType::kSort, "TopK(revenue)", {agg}, 12.0, 0.1,
             std::min(10.0, groups), 48);
  return std::move(a).Finish();
}

// Q5 (paper Fig. 9): sigma(R) |x| N |x| C |x| sigma(O) |x| L |x| S -> Agg.
// The 5 join operators are the free operators 1-5 of the figure.
//
// Operator statistics are *measured profiles* at the reference point
// SF=100 / 10 nodes (the paper's perfect cost estimates, §5.1): baseline
// ~905 s (paper: 905.33 s), total materialization ~34% of the runtime
// costs (paper: 34.13%), and runtime spread over the join chain as on the
// MySQL-backed testbed (co-partitioned L join, RREF lookups), so that no
// single operator dominates re-execution.
Plan BuildQ5(const TpchPlanConfig& cfg) {
  QueryAssembler a("Q5", cfg);
  // Ratio of the configured ORDERS selectivity to the reference 1/7:
  // scales every operator downstream of sigma(O).
  const double sel_ratio = cfg.q5_order_selectivity /
                           TpchCatalog::OrderDateYearSelectivity();

  const OpId r = a.Measured(OpType::kTableScan, "Scan(s:REGION)", {}, 0.01,
                            0.0, 1, 120, /*scale_runtime=*/false);
  const OpId n = a.Measured(OpType::kTableScan, "Scan(NATION)", {}, 0.01,
                            0.0, 25, 128, /*scale_runtime=*/false);
  const OpId c = a.Measured(OpType::kTableScan, "Scan(CUSTOMER)", {}, 2.0,
                            0.0, a.Rows(TpchTable::kCustomer), 180);
  const OpId o = a.Measured(OpType::kTableScan, "Scan(s:ORDERS)", {}, 5.0,
                            0.0,
                            a.Rows(TpchTable::kOrders) *
                                cfg.q5_order_selectivity,
                            128);
  const OpId l = a.Measured(OpType::kTableScan, "Scan(LINEITEM)", {}, 8.0,
                            0.0, a.Rows(TpchTable::kLineitem), 120);
  const OpId s = a.Measured(OpType::kTableScan, "Scan(SUPPLIER)", {}, 1.0,
                            0.0, a.Rows(TpchTable::kSupplier), 160);

  const double nations_in_region = 5.0;
  const OpId j1 = a.Measured(OpType::kHashJoin, "Join1(R,N)", {r, n}, 0.1,
                             0.01, nations_in_region, 140,
                             /*scale_runtime=*/false, /*scale_mat=*/false);
  // Customers of the region's 5 (of 25) nations.
  const double j2_rows = a.Rows(TpchTable::kCustomer) / 5.0;
  const OpId j2 = a.Measured(OpType::kHashJoin, "Join2(RN,C)", {j1, c},
                             110.0, 60.0, j2_rows, 200);
  // Orders in the date range whose customer is in the region.
  const double j3_rows =
      a.Rows(TpchTable::kOrders) * cfg.q5_order_selectivity / 5.0;
  const OpId j3 = a.Measured(OpType::kHashJoin, "Join3(RNC,O)", {j2, o},
                             240.0 * sel_ratio, 110.0 * sel_ratio, j3_rows,
                             220);
  // ~4 lineitems per order (co-partitioned on orderkey: local join).
  const double j4_rows = j3_rows * 4.0;
  const OpId j4 = a.Measured(OpType::kHashJoin, "Join4(RNCO,L)", {j3, l},
                             240.0 * sel_ratio, 75.0 * sel_ratio, j4_rows,
                             260);
  // Supplier must be in the customer's nation: 1/25 survive.
  const double j5_rows = j4_rows / 25.0;
  const OpId j5 = a.Measured(OpType::kHashJoin, "Join5(RNCOL,S)", {j4, s},
                             215.0 * sel_ratio, 60.0 * sel_ratio, j5_rows,
                             280);
  a.Measured(OpType::kHashAggregate, "Agg(nation)", {j5}, 95.0 * sel_ratio,
             0.3, nations_in_region, 112, /*scale_runtime=*/true,
             /*scale_mat=*/false);
  return std::move(a).Finish();
}

// Q1C: nested Q1 — the inner aggregation computes the average price, the
// outer query re-joins LINEITEM against it and counts the items above the
// average. The inner aggregation sits in the middle of the plan and has
// tiny materialization costs: the natural checkpoint (§5.2).
Plan BuildQ1C(const TpchPlanConfig& cfg) {
  QueryAssembler a("Q1C", cfg);
  const OpId inner_scan = a.Scan(TpchTable::kLineitem,
                                 TpchCatalog::LineitemShipdateQ1Selectivity());
  const OpId inner_agg =
      a.Aggregate("InnerAgg(avg_price)", inner_scan, 4, 48);
  const OpId outer_scan = a.Scan(TpchTable::kLineitem,
                                 TpchCatalog::LineitemShipdateQ1Selectivity());
  // Theta-join against the tiny average: ~17% of items exceed the average
  // price of their status group (wide output rows keep all item columns).
  const double j_rows = a.Rows(TpchTable::kLineitem) * 0.17;
  const OpId j = a.Join("Join(L,avg)", inner_agg, outer_scan, j_rows, 160);
  a.Aggregate("Agg(count_by_status)", j, 4, 96);
  return std::move(a).Finish();
}

// Q2C: the paper's DAG-structured variant of Q2 — the inner 4-way-join
// aggregation (min supplycost per part) is a CTE consumed by two outer
// queries with different PART filters.
Plan BuildQ2C(const TpchPlanConfig& cfg) {
  QueryAssembler a("Q2C", cfg);
  const double type_sel = TpchCatalog::Q2PartTypeSelectivity();
  const OpId p = a.Scan(TpchTable::kPart, type_sel);
  const OpId ps = a.Scan(TpchTable::kPartSupp);
  const OpId s = a.Scan(TpchTable::kSupplier);
  const OpId n = a.Scan(TpchTable::kNation);

  // Inner CTE: sigma(P) |x| PS |x| S |x| N -> Agg(min supplycost).
  const double j1_rows = a.Rows(TpchTable::kPartSupp) * type_sel;
  const OpId j1 = a.Join("InnerJoin1(P,PS)", p, ps, j1_rows, 400);
  const OpId j2 = a.Join("InnerJoin2(PPS,S)", j1, s, j1_rows, 420);
  const OpId j3 = a.Join("InnerJoin3(PPSS,N)", j2, n, j1_rows, 430);
  const double cte_rows = a.Rows(TpchTable::kPart) * type_sel;
  const OpId cte = a.Aggregate("CTE(min_supplycost)", j3, cte_rows, 32);

  // Two outer queries with different PART filters, each re-joining the CTE
  // with PART and PARTSUPP.
  for (int i = 1; i <= 2; ++i) {
    const std::string tag = std::to_string(i);
    const OpId pi = a.Scan(TpchTable::kPart, type_sel * 0.5);
    const double oa_rows = cte_rows * 0.5;
    const OpId oa =
        a.Join("Outer" + tag + "Join(CTE,P)", cte, pi, oa_rows, 200);
    const OpId psi = a.Scan(TpchTable::kPartSupp);
    const double ob_rows = oa_rows * 4.0 * 0.25;  // min-cost supplier match
    const OpId ob =
        a.Join("Outer" + tag + "Join(.,PS)", oa, psi, ob_rows, 240);
    a.Aggregate("Outer" + tag + "TopK", ob, std::min(100.0, ob_rows), 240,
                OpType::kSort);
  }
  return std::move(a).Finish();
}

}  // namespace

Result<Plan> BuildQuery(TpchQuery query, const TpchPlanConfig& config) {
  XDBFT_RETURN_NOT_OK(config.Validate());
  Plan p;
  switch (query) {
    case TpchQuery::kQ1:
      p = BuildQ1(config);
      break;
    case TpchQuery::kQ3:
      p = BuildQ3(config);
      break;
    case TpchQuery::kQ5:
      p = BuildQ5(config);
      break;
    case TpchQuery::kQ1C:
      p = BuildQ1C(config);
      break;
    case TpchQuery::kQ2C:
      p = BuildQ2C(config);
      break;
  }
  XDBFT_RETURN_NOT_OK(p.Validate());
  return p;
}

}  // namespace xdbft::tpch
