#include "tpch/q5_join_graph.h"

#include "catalog/tpch_catalog.h"

namespace xdbft::tpch {

using catalog::TpchCatalog;
using catalog::TpchTable;
using optimizer::JoinGraph;

Result<JoinGraph> MakeQ5JoinGraph(const TpchPlanConfig& config) {
  XDBFT_RETURN_NOT_OK(config.Validate());
  TpchCatalog cat(config.scale_factor);

  auto scan_cost = [&](TpchTable t) { return config.ScanCost(cat.Rows(t)); };
  auto scan_width = [&](TpchTable t) {
    return cat.info(t).row_width_bytes;
  };

  JoinGraph g;
  // Filtered base relations; width_contribution values reproduce the
  // intermediate widths of BuildQuery(kQ5, ...) along the Fig. 9 chain.
  const int r = g.AddRelation(
      {"REGION", cat.Rows(TpchTable::kRegion) * TpchCatalog::RegionSelectivity(),
       scan_cost(TpchTable::kRegion), 60, scan_width(TpchTable::kRegion)});
  const int n = g.AddRelation({"NATION", cat.Rows(TpchTable::kNation),
                               scan_cost(TpchTable::kNation), 80,
                               scan_width(TpchTable::kNation)});
  const int c = g.AddRelation({"CUSTOMER", cat.Rows(TpchTable::kCustomer),
                               scan_cost(TpchTable::kCustomer), 60,
                               scan_width(TpchTable::kCustomer)});
  const int o = g.AddRelation(
      {"ORDERS", cat.Rows(TpchTable::kOrders) * config.q5_order_selectivity,
       scan_cost(TpchTable::kOrders), 20, scan_width(TpchTable::kOrders)});
  const int l = g.AddRelation({"LINEITEM", cat.Rows(TpchTable::kLineitem),
                               scan_cost(TpchTable::kLineitem), 40,
                               scan_width(TpchTable::kLineitem)});
  const int s = g.AddRelation({"SUPPLIER", cat.Rows(TpchTable::kSupplier),
                               scan_cost(TpchTable::kSupplier), 20,
                               scan_width(TpchTable::kSupplier)});

  // regionkey: the filtered region keeps 5 of 25 nations.
  XDBFT_RETURN_NOT_OK(g.AddEdge(r, n, 1.0 / 5.0, "n_regionkey=r_regionkey"));
  XDBFT_RETURN_NOT_OK(g.AddEdge(n, c, 1.0 / 25.0,
                                "c_nationkey=n_nationkey"));
  XDBFT_RETURN_NOT_OK(g.AddEdge(c, o, 1.0 / cat.Rows(TpchTable::kCustomer),
                                "o_custkey=c_custkey"));
  XDBFT_RETURN_NOT_OK(g.AddEdge(o, l, 1.0 / cat.Rows(TpchTable::kOrders),
                                "l_orderkey=o_orderkey"));
  // The supplier-in-customer-nation predicate (s_nationkey = c_nationkey)
  // is folded into the LINEITEM-SUPPLIER edge as an extra 1/25 rather than
  // modeled as a NATION-SUPPLIER graph edge: the paper enumerates exactly
  // the 1344 join orders of the *chain* R-N-C-O-L-S (Catalan(5) * 2^5),
  // treating that predicate as a post-join filter.
  XDBFT_RETURN_NOT_OK(
      g.AddEdge(l, s, 1.0 / cat.Rows(TpchTable::kSupplier) / 25.0,
                "l_suppkey=s_suppkey AND s_nationkey=c_nationkey"));
  XDBFT_RETURN_NOT_OK(g.Validate());
  return g;
}

}  // namespace xdbft::tpch
