#include "datagen/tpch_gen.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

namespace xdbft::datagen {
namespace {

using catalog::TpchTable;

TpchDatabase SmallDb() {
  TpchGenOptions opts;
  opts.scale_factor = 0.01;
  opts.seed = 7;
  return *GenerateTpch(opts);
}

TEST(TpchGenTest, CardinalitiesFollowScalingRules) {
  TpchDatabase db = SmallDb();
  EXPECT_EQ(db.region.num_rows(), 5u);
  EXPECT_EQ(db.nation.num_rows(), 25u);
  EXPECT_EQ(db.supplier.num_rows(), 100u);
  EXPECT_EQ(db.customer.num_rows(), 1500u);
  EXPECT_EQ(db.part.num_rows(), 2000u);
  EXPECT_EQ(db.partsupp.num_rows(), 8000u);
  EXPECT_EQ(db.orders.num_rows(), 15000u);
  // 1-7 lineitems per order, expected ~4x.
  EXPECT_GT(db.lineitem.num_rows(), 3u * db.orders.num_rows());
  EXPECT_LT(db.lineitem.num_rows(), 5u * db.orders.num_rows());
}

TEST(TpchGenTest, DeterministicForSeed) {
  TpchGenOptions opts;
  opts.scale_factor = 0.005;
  opts.seed = 99;
  auto a = GenerateTpch(opts);
  auto b = GenerateTpch(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->lineitem.num_rows(), b->lineitem.num_rows());
  for (size_t i = 0; i < a->lineitem.num_rows(); i += 97) {
    EXPECT_TRUE(exec::RowEq{}(a->lineitem.GetRow(i), b->lineitem.GetRow(i)));
  }
}

TEST(TpchGenTest, DifferentSeedsDiffer) {
  TpchGenOptions a, b;
  a.scale_factor = b.scale_factor = 0.002;
  a.seed = 1;
  b.seed = 2;
  auto da = GenerateTpch(a);
  auto db = GenerateTpch(b);
  // Same schema-level cardinality for ORDERS, different content.
  EXPECT_EQ(da->orders.num_rows(), db->orders.num_rows());
  EXPECT_FALSE(exec::RowEq{}(da->orders.GetRow(0), db->orders.GetRow(0)));
}

TEST(TpchGenTest, ReferentialIntegrityNationRegion) {
  TpchDatabase db = SmallDb();
  for (const auto& row : db.nation.ToRows()) {
    const int64_t rk = row[2].AsInt64();
    EXPECT_GE(rk, 0);
    EXPECT_LT(rk, 5);
  }
}

TEST(TpchGenTest, ReferentialIntegrityOrdersCustomer) {
  TpchDatabase db = SmallDb();
  const int64_t max_cust = static_cast<int64_t>(db.customer.num_rows());
  for (const auto& row : db.orders.ToRows()) {
    const int64_t ck = row[1].AsInt64();
    EXPECT_GE(ck, 1);
    EXPECT_LE(ck, max_cust);
  }
}

TEST(TpchGenTest, ReferentialIntegrityLineitem) {
  TpchDatabase db = SmallDb();
  const int64_t max_order = static_cast<int64_t>(db.orders.num_rows());
  const int64_t max_part = static_cast<int64_t>(db.part.num_rows());
  const int64_t max_supp = static_cast<int64_t>(db.supplier.num_rows());
  std::set<std::pair<int64_t, int64_t>> partsupp_pairs;
  for (const auto& row : db.partsupp.ToRows()) {
    partsupp_pairs.insert({row[0].AsInt64(), row[1].AsInt64()});
  }
  for (const auto& row : db.lineitem.ToRows()) {
    EXPECT_GE(row[0].AsInt64(), 1);
    EXPECT_LE(row[0].AsInt64(), max_order);
    EXPECT_GE(row[2].AsInt64(), 1);
    EXPECT_LE(row[2].AsInt64(), max_part);
    EXPECT_GE(row[3].AsInt64(), 1);
    EXPECT_LE(row[3].AsInt64(), max_supp);
    // The (part, supplier) pair must exist in PARTSUPP.
    EXPECT_TRUE(partsupp_pairs.count(
        {row[2].AsInt64(), row[3].AsInt64()}))
        << "lineitem references missing partsupp pair";
  }
}

TEST(TpchGenTest, PartSuppHasFourSuppliersPerPart) {
  TpchDatabase db = SmallDb();
  std::map<int64_t, std::set<int64_t>> suppliers_of;
  for (const auto& row : db.partsupp.ToRows()) {
    suppliers_of[row[0].AsInt64()].insert(row[1].AsInt64());
  }
  EXPECT_EQ(suppliers_of.size(), db.part.num_rows());
  for (const auto& [part, supps] : suppliers_of) {
    EXPECT_GE(supps.size(), 3u) << part;  // collisions may merge one pair
    EXPECT_LE(supps.size(), 4u) << part;
  }
}

TEST(TpchGenTest, DatesWithinWindow) {
  TpchDatabase db = SmallDb();
  for (const auto& row : db.orders.ToRows()) {
    EXPECT_GE(row[2].AsInt64(), 0);
    EXPECT_LT(row[2].AsInt64(), kDateRangeDays);
  }
  for (const auto& row : db.lineitem.ToRows()) {
    EXPECT_GE(row[10].AsInt64(), 0);
    EXPECT_LT(row[10].AsInt64(), kDateRangeDays);
  }
}

TEST(TpchGenTest, ShipdateAfterOrderDate) {
  TpchDatabase db = SmallDb();
  std::map<int64_t, int64_t> order_date;
  for (const auto& row : db.orders.ToRows()) {
    order_date[row[0].AsInt64()] = row[2].AsInt64();
  }
  for (const auto& row : db.lineitem.ToRows()) {
    EXPECT_GE(row[10].AsInt64(), order_date[row[0].AsInt64()]);
  }
}

TEST(TpchGenTest, KeysAreUnique) {
  TpchDatabase db = SmallDb();
  std::set<int64_t> keys;
  for (const auto& row : db.orders.ToRows()) {
    EXPECT_TRUE(keys.insert(row[0].AsInt64()).second);
  }
}

TEST(TpchGenTest, SchemasMatchRows) {
  TpchDatabase db = SmallDb();
  EXPECT_EQ(db.lineitem.schema.num_columns(),
            db.lineitem.GetRow(0).size());
  EXPECT_EQ(db.customer.schema.num_columns(),
            db.customer.GetRow(0).size());
  EXPECT_EQ(db.lineitem.schema.column(10).name, "l_shipdate");
}

TEST(TpchGenTest, TableAccessorByEnum) {
  TpchDatabase db = SmallDb();
  EXPECT_EQ(&db.table(TpchTable::kLineitem), &db.lineitem);
  EXPECT_EQ(&db.table(TpchTable::kRegion), &db.region);
}

TEST(TpchGenTest, RejectsBadScaleFactor) {
  TpchGenOptions opts;
  opts.scale_factor = 0.0;
  EXPECT_FALSE(GenerateTpch(opts).ok());
}

}  // namespace
}  // namespace xdbft::datagen
