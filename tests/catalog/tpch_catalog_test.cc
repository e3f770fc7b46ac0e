#include "catalog/tpch_catalog.h"

#include <gtest/gtest.h>

namespace xdbft::catalog {
namespace {

TEST(TpchCatalogTest, BaseCardinalitiesAtSf1) {
  TpchCatalog cat(1.0);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kRegion), 5);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kNation), 25);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kSupplier), 10000);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kCustomer), 150000);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kPart), 200000);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kPartSupp), 800000);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kOrders), 1500000);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kLineitem), 6001215);
}

TEST(TpchCatalogTest, FixedTablesDoNotScale) {
  TpchCatalog cat(100.0);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kRegion), 5);
  EXPECT_DOUBLE_EQ(cat.Rows(TpchTable::kNation), 25);
}

TEST(TpchCatalogTest, ScalingIsLinear) {
  TpchCatalog sf10(10.0);
  TpchCatalog sf1(1.0);
  EXPECT_DOUBLE_EQ(sf10.Rows(TpchTable::kLineitem),
                   10.0 * sf1.Rows(TpchTable::kLineitem));
  EXPECT_DOUBLE_EQ(sf10.Rows(TpchTable::kOrders),
                   10.0 * sf1.Rows(TpchTable::kOrders));
}

TEST(TpchCatalogTest, LineitemToOrdersRatio) {
  TpchCatalog cat(1.0);
  const double ratio =
      cat.Rows(TpchTable::kLineitem) / cat.Rows(TpchTable::kOrders);
  EXPECT_GT(ratio, 3.9);
  EXPECT_LT(ratio, 4.1);
}

TEST(TpchCatalogTest, BytesUsesRowWidth) {
  TpchCatalog cat(1.0);
  EXPECT_DOUBLE_EQ(cat.Bytes(TpchTable::kNation),
                   25 * cat.info(TpchTable::kNation).row_width_bytes);
}

TEST(TpchCatalogTest, PartitioningMatchesPaperSetup) {
  TpchCatalog cat(1.0);
  EXPECT_EQ(cat.info(TpchTable::kRegion).partitioning,
            Partitioning::kReplicated);
  EXPECT_EQ(cat.info(TpchTable::kNation).partitioning,
            Partitioning::kReplicated);
  EXPECT_EQ(cat.info(TpchTable::kLineitem).partitioning, Partitioning::kHash);
  EXPECT_EQ(cat.info(TpchTable::kOrders).partitioning, Partitioning::kHash);
  EXPECT_EQ(cat.info(TpchTable::kLineitem).partition_key, "orderkey");
  EXPECT_EQ(cat.info(TpchTable::kOrders).partition_key, "orderkey");
  EXPECT_EQ(cat.info(TpchTable::kCustomer).partitioning, Partitioning::kRref);
  EXPECT_EQ(cat.info(TpchTable::kSupplier).partitioning, Partitioning::kRref);
  EXPECT_EQ(cat.info(TpchTable::kPartSupp).partitioning, Partitioning::kRref);
}

TEST(TpchCatalogTest, TableNames) {
  EXPECT_STREQ(TpchTableName(TpchTable::kLineitem), "LINEITEM");
  EXPECT_STREQ(TpchTableName(TpchTable::kRegion), "REGION");
  TpchCatalog cat(1.0);
  EXPECT_EQ(cat.tables().size(), static_cast<size_t>(kNumTpchTables));
  for (const auto& t : cat.tables()) {
    EXPECT_EQ(t.name, TpchTableName(t.table));
  }
}

TEST(TpchCatalogTest, SelectivityConstants) {
  EXPECT_DOUBLE_EQ(TpchCatalog::RegionSelectivity(), 0.2);
  EXPECT_NEAR(TpchCatalog::OrderDateYearSelectivity(), 1.0 / 7.0, 1e-12);
  EXPECT_GT(TpchCatalog::LineitemShipdateQ1Selectivity(), 0.9);
}

}  // namespace
}  // namespace xdbft::catalog
