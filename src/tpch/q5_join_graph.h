// Join graph of TPC-H Q5 for join-order enumeration (paper §5.5: "we
// enumerate all 1344 equivalent join orders of TPC-H query 5, i.e. we do
// not enumerate plans with cartesian products").
//
// The graph is the 5-cycle NATION-CUSTOMER-ORDERS-LINEITEM-SUPPLIER-NATION
// (the supplier-in-customer-nation predicate closes the cycle) with REGION
// pendant on NATION. Edge selectivities are chosen so that subset
// cardinalities under the independence assumption reproduce the chain
// cardinalities of BuildQuery(kQ5, ...).
#pragma once

#include "optimizer/join_enumerator.h"
#include "optimizer/join_graph.h"
#include "tpch/queries.h"

namespace xdbft::tpch {

/// \brief Build Q5's join graph under `config` (analytic cardinalities
/// from the catalog's scaling formulas).
Result<optimizer::JoinGraph> MakeQ5JoinGraph(const TpchPlanConfig& config);

/// \brief The PhysicalCostParams part of `config`.
inline optimizer::PhysicalCostParams MakePhysicalCostParams(
    const TpchPlanConfig& config) {
  return config;
}

}  // namespace xdbft::tpch
