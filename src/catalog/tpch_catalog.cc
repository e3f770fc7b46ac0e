#include "catalog/tpch_catalog.h"

#include "common/logging.h"

namespace xdbft::catalog {

const char* TpchTableName(TpchTable t) {
  switch (t) {
    case TpchTable::kRegion:
      return "REGION";
    case TpchTable::kNation:
      return "NATION";
    case TpchTable::kSupplier:
      return "SUPPLIER";
    case TpchTable::kCustomer:
      return "CUSTOMER";
    case TpchTable::kPart:
      return "PART";
    case TpchTable::kPartSupp:
      return "PARTSUPP";
    case TpchTable::kOrders:
      return "ORDERS";
    case TpchTable::kLineitem:
      return "LINEITEM";
  }
  return "?";
}

TpchCatalog::TpchCatalog(double scale_factor) : scale_factor_(scale_factor) {
  XDBFT_CHECK(scale_factor > 0.0);
  tables_ = {
      {TpchTable::kRegion, "REGION", 5, true, 120, Partitioning::kReplicated,
       ""},
      {TpchTable::kNation, "NATION", 25, true, 128,
       Partitioning::kReplicated, ""},
      {TpchTable::kSupplier, "SUPPLIER", 10000, false, 160,
       Partitioning::kRref, "suppkey"},
      {TpchTable::kCustomer, "CUSTOMER", 150000, false, 180,
       Partitioning::kRref, "custkey"},
      {TpchTable::kPart, "PART", 200000, false, 156, Partitioning::kRref,
       "partkey"},
      {TpchTable::kPartSupp, "PARTSUPP", 800000, false, 144,
       Partitioning::kRref, "partkey"},
      {TpchTable::kOrders, "ORDERS", 1500000, false, 128,
       Partitioning::kHash, "orderkey"},
      {TpchTable::kLineitem, "LINEITEM", 6001215, false, 120,
       Partitioning::kHash, "orderkey"},
  };
}

const TpchTableInfo& TpchCatalog::info(TpchTable t) const {
  return tables_[static_cast<size_t>(t)];
}

double TpchCatalog::Rows(TpchTable t) const {
  const TpchTableInfo& ti = info(t);
  return ti.fixed_size ? ti.base_rows : ti.base_rows * scale_factor_;
}

double TpchCatalog::Bytes(TpchTable t) const {
  return Rows(t) * info(t).row_width_bytes;
}

}  // namespace xdbft::catalog
