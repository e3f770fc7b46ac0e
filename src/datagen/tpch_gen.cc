#include "datagen/tpch_gen.h"

#include <algorithm>

#include "common/string_util.h"

namespace xdbft::datagen {

using catalog::TpchTable;
using exec::Schema;
using exec::Table;
using exec::TableBuilder;
using exec::ValueType;

namespace {

const char* kRegionNames[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                              "MIDDLE EAST"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "HOUSEHOLD", "MACHINERY"};
const char* kReturnFlags[] = {"R", "A", "N"};
const char* kPartTypes[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                            "ECONOMY", "PROMO"};
const char* kMaterials[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};

int64_t Rows(double base, double sf) {
  return std::max<int64_t>(1, static_cast<int64_t>(base * sf));
}

}  // namespace

Schema RegionSchema() {
  return {{"r_regionkey", ValueType::kInt64},
          {"r_name", ValueType::kString}};
}

Schema NationSchema() {
  return {{"n_nationkey", ValueType::kInt64},
          {"n_name", ValueType::kString},
          {"n_regionkey", ValueType::kInt64}};
}

Schema SupplierSchema() {
  return {{"s_suppkey", ValueType::kInt64},
          {"s_name", ValueType::kString},
          {"s_nationkey", ValueType::kInt64},
          {"s_acctbal", ValueType::kDouble}};
}

Schema CustomerSchema() {
  return {{"c_custkey", ValueType::kInt64},
          {"c_name", ValueType::kString},
          {"c_nationkey", ValueType::kInt64},
          {"c_mktsegment", ValueType::kString},
          {"c_acctbal", ValueType::kDouble}};
}

Schema PartSchema() {
  return {{"p_partkey", ValueType::kInt64},
          {"p_name", ValueType::kString},
          {"p_type", ValueType::kString},
          {"p_retailprice", ValueType::kDouble}};
}

Schema PartSuppSchema() {
  return {{"ps_partkey", ValueType::kInt64},
          {"ps_suppkey", ValueType::kInt64},
          {"ps_supplycost", ValueType::kDouble},
          {"ps_availqty", ValueType::kInt64}};
}

Schema OrdersSchema() {
  return {{"o_orderkey", ValueType::kInt64},
          {"o_custkey", ValueType::kInt64},
          {"o_orderdate", ValueType::kInt64},
          {"o_totalprice", ValueType::kDouble},
          {"o_orderstatus", ValueType::kString}};
}

Schema LineitemSchema() {
  return {{"l_orderkey", ValueType::kInt64},
          {"l_linenumber", ValueType::kInt64},
          {"l_partkey", ValueType::kInt64},
          {"l_suppkey", ValueType::kInt64},
          {"l_quantity", ValueType::kDouble},
          {"l_extendedprice", ValueType::kDouble},
          {"l_discount", ValueType::kDouble},
          {"l_tax", ValueType::kDouble},
          {"l_returnflag", ValueType::kString},
          {"l_linestatus", ValueType::kString},
          {"l_shipdate", ValueType::kInt64}};
}

const Table& TpchDatabase::table(TpchTable t) const {
  switch (t) {
    case TpchTable::kRegion:
      return region;
    case TpchTable::kNation:
      return nation;
    case TpchTable::kSupplier:
      return supplier;
    case TpchTable::kCustomer:
      return customer;
    case TpchTable::kPart:
      return part;
    case TpchTable::kPartSupp:
      return partsupp;
    case TpchTable::kOrders:
      return orders;
    case TpchTable::kLineitem:
      return lineitem;
  }
  return region;  // unreachable
}

Result<TpchDatabase> GenerateTpch(const TpchGenOptions& options) {
  if (!(options.scale_factor > 0.0)) {
    return Status::InvalidArgument("scale_factor must be positive");
  }
  const double sf = options.scale_factor;
  Rng rng(options.seed);
  TpchDatabase db;

  // Columns are written directly into typed builders, in schema order.
  // REGION: 5 fixed rows.
  {
    TableBuilder b(RegionSchema());
    for (int64_t r = 0; r < 5; ++r) {
      b.column(0).AppendInt64(r);
      b.column(1).AppendString(kRegionNames[r]);
      b.EndRow();
    }
    db.region = b.Finish();
  }

  // NATION: 25 fixed rows, 5 per region.
  {
    TableBuilder b(NationSchema());
    for (int64_t n = 0; n < 25; ++n) {
      b.column(0).AppendInt64(n);
      b.column(1).AppendString(
          StrFormat("NATION#%02lld", static_cast<long long>(n)));
      b.column(2).AppendInt64(n % 5);
      b.EndRow();
    }
    db.nation = b.Finish();
  }

  // SUPPLIER: 10,000 * SF.
  const int64_t num_suppliers = Rows(10000, sf);
  {
    TableBuilder b(SupplierSchema());
    for (int64_t s = 1; s <= num_suppliers; ++s) {
      b.column(0).AppendInt64(s);
      b.column(1).AppendString(
          StrFormat("Supplier#%09lld", static_cast<long long>(s)));
      b.column(2).AppendInt64(rng.NextInt(0, 24));
      b.column(3).AppendDouble(rng.NextDouble() * 11000.0 - 1000.0);
      b.EndRow();
    }
    db.supplier = b.Finish();
  }

  // CUSTOMER: 150,000 * SF.
  const int64_t num_customers = Rows(150000, sf);
  {
    TableBuilder b(CustomerSchema());
    for (int64_t c = 1; c <= num_customers; ++c) {
      b.column(0).AppendInt64(c);
      b.column(1).AppendString(
          StrFormat("Customer#%09lld", static_cast<long long>(c)));
      b.column(2).AppendInt64(rng.NextInt(0, 24));
      b.column(3).AppendString(kSegments[rng.NextBounded(5)]);
      b.column(4).AppendDouble(rng.NextDouble() * 10999.99 - 999.99);
      b.EndRow();
    }
    db.customer = b.Finish();
  }

  // PART: 200,000 * SF.
  const int64_t num_parts = Rows(200000, sf);
  {
    TableBuilder b(PartSchema());
    for (int64_t p = 1; p <= num_parts; ++p) {
      const std::string type = std::string(kPartTypes[rng.NextBounded(6)]) +
                               " " + kMaterials[rng.NextBounded(5)];
      b.column(0).AppendInt64(p);
      b.column(1).AppendString(
          StrFormat("Part#%09lld", static_cast<long long>(p)));
      b.column(2).AppendString(type);
      b.column(3).AppendDouble(900.0 + static_cast<double>(p % 1000) +
                               0.01 * static_cast<double>(p % 100));
      b.EndRow();
    }
    db.part = b.Finish();
  }

  // PARTSUPP: 4 suppliers per part.
  {
    TableBuilder b(PartSuppSchema());
    for (int64_t p = 1; p <= num_parts; ++p) {
      for (int64_t i = 0; i < 4; ++i) {
        const int64_t s =
            1 + (p + i * (num_suppliers / 4 + 1)) % num_suppliers;
        b.column(0).AppendInt64(p);
        b.column(1).AppendInt64(s);
        b.column(2).AppendDouble(rng.NextDouble() * 1000.0 + 1.0);
        b.column(3).AppendInt64(rng.NextInt(1, 9999));
        b.EndRow();
      }
    }
    db.partsupp = b.Finish();
  }

  // ORDERS: 1,500,000 * SF, uniform over customers and the 7-year window.
  const int64_t num_orders = Rows(1500000, sf);
  std::vector<int64_t> order_dates(static_cast<size_t>(num_orders));
  {
    TableBuilder b(OrdersSchema());
    for (int64_t o = 1; o <= num_orders; ++o) {
      const int64_t date = rng.NextInt(0, kDateRangeDays - 1);
      order_dates[static_cast<size_t>(o - 1)] = date;
      b.column(0).AppendInt64(o);
      b.column(1).AppendInt64(rng.NextInt(1, num_customers));
      b.column(2).AppendInt64(date);
      b.column(3).AppendDouble(rng.NextDouble() * 400000.0 + 900.0);
      b.column(4).AppendString(date < kDateRangeDays / 2 ? "F" : "O");
      b.EndRow();
    }
    db.orders = b.Finish();
  }

  // LINEITEM: 1-7 items per order (avg ~4, matching 6M/1.5M at SF=1).
  {
    TableBuilder b(LineitemSchema());
    for (int64_t o = 1; o <= num_orders; ++o) {
      const int64_t items = rng.NextInt(1, 7);
      const int64_t odate = order_dates[static_cast<size_t>(o - 1)];
      for (int64_t ln = 1; ln <= items; ++ln) {
        const int64_t part_key = rng.NextInt(1, num_parts);
        // Pick one of the part's 4 suppliers so LINEITEM joins PARTSUPP.
        const int64_t supp_index = rng.NextInt(0, 3);
        const int64_t supp_key =
            1 + (part_key + supp_index * (num_suppliers / 4 + 1)) %
                    num_suppliers;
        const double qty = static_cast<double>(rng.NextInt(1, 50));
        const double price = qty * (900.0 + static_cast<double>(
                                                part_key % 1000));
        const int64_t ship = std::min<int64_t>(kDateRangeDays - 1,
                                               odate + rng.NextInt(1, 121));
        b.column(0).AppendInt64(o);
        b.column(1).AppendInt64(ln);
        b.column(2).AppendInt64(part_key);
        b.column(3).AppendInt64(supp_key);
        b.column(4).AppendDouble(qty);
        b.column(5).AppendDouble(price);
        b.column(6).AppendDouble(0.01 *
                                 static_cast<double>(rng.NextInt(0, 10)));
        b.column(7).AppendDouble(0.01 *
                                 static_cast<double>(rng.NextInt(0, 8)));
        b.column(8).AppendString(kReturnFlags[rng.NextBounded(3)]);
        b.column(9).AppendString(ship < kDateRangeDays / 2 ? "F" : "O");
        b.column(10).AppendInt64(ship);
        b.EndRow();
      }
    }
    db.lineitem = b.Finish();
  }
  return db;
}

}  // namespace xdbft::datagen
