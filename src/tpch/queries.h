// DAG-structured execution plans for the paper's benchmark queries
// (§5.1-5.2): TPC-H Q1 (no join), Q3 (3-way join), Q5 (6-way join, Fig. 9),
// plus the paper's two complex variants Q1C (nested Q1 with an aggregation
// in the middle of the plan) and Q2C (CTE consumed by two outer queries,
// i.e. a genuinely DAG-structured plan).
//
// Plans carry per-operator cardinalities derived from the TPC-H catalog and
// per-operator costs tr(o)/tm(o): Q3 and Q5 from measured profiles scaled
// from the paper's testbed, the others from the rates and cost formulas of
// optimizer::PhysicalCostParams. Table scans are bound
// (kNeverMaterialize): base tables are already persistent, so Q1 has no
// free operator — exactly as in the paper, where "Q1 has no free operator
// that can be selected for materialization" — while Q5 has the 5 free join
// operators of Figure 9.
#pragma once

#include <string>
#include <vector>

#include "catalog/tpch_catalog.h"
#include "common/result.h"
#include "optimizer/physical_cost.h"
#include "plan/plan.h"

namespace xdbft::tpch {

enum class TpchQuery : int { kQ1, kQ3, kQ5, kQ1C, kQ2C };

const char* TpchQueryName(TpchQuery q);
std::vector<TpchQuery> AllQueries();

/// \brief Execution-environment parameters used to derive tr(o)/tm(o): the
/// execution rates plus the database size.
///
/// The default rates are calibrated so that Q5 over SF=100 on 10 nodes has
/// a ~905 s no-failure baseline with total materialization costs ~34% of
/// the runtime costs, matching the paper's measurements (§5.3); Q1C/Q2C
/// then land in the reported 60-100% materialization-cost band.
struct TpchPlanConfig : optimizer::PhysicalCostParams {
  double scale_factor = 1.0;

  /// \brief Selectivity applied to Q5's ORDERS date predicate; the paper's
  /// §5.3 "low selectivity" variant uses a smaller value.
  double q5_order_selectivity = catalog::TpchCatalog::OrderDateYearSelectivity();

  Status Validate() const;
};

/// \brief Build the execution plan for `query` under `config`.
Result<plan::Plan> BuildQuery(TpchQuery query, const TpchPlanConfig& config);

}  // namespace xdbft::tpch
