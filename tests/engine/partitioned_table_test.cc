#include "engine/partitioned_table.h"

#include <gtest/gtest.h>

namespace xdbft::engine {
namespace {

using catalog::Partitioning;
using catalog::TpchTable;
using exec::Table;
using exec::Value;
using exec::ValueType;

Table KeyedTable(int n) {
  std::vector<exec::Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(i), Value("row" + std::to_string(i))});
  }
  return Table::FromRows({{"k", ValueType::kInt64}, {"v", ValueType::kString}},
                         rows)
      .ValueOrDie();
}

TEST(PartitionTest, HashPartitionCoversAllRowsDisjointly) {
  Table t = KeyedTable(1000);
  auto pt = Partition(t, Partitioning::kHash, "k", 7);
  ASSERT_TRUE(pt.ok()) << pt.status();
  EXPECT_EQ(pt->num_partitions(), 7u);
  EXPECT_EQ(pt->TotalRows(), 1000u);
  EXPECT_EQ(pt->LogicalRows(), 1000u);
  // Every row lands in the partition of its key hash.
  for (size_t p = 0; p < pt->partitions.size(); ++p) {
    for (const auto& row : pt->partitions[p].ToRows()) {
      EXPECT_EQ(row[0].Hash() % 7, p);
    }
  }
}

TEST(PartitionTest, HashPartitionIsRoughlyBalanced) {
  Table t = KeyedTable(7000);
  auto pt = Partition(t, Partitioning::kHash, "k", 7);
  ASSERT_TRUE(pt.ok());
  for (const auto& p : pt->partitions) {
    EXPECT_GT(p.num_rows(), 700u);
    EXPECT_LT(p.num_rows(), 1300u);
  }
}

TEST(PartitionTest, ReplicatedCopiesEverywhere) {
  Table t = KeyedTable(50);
  auto pt = Partition(t, Partitioning::kReplicated, "", 4);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt->TotalRows(), 200u);
  EXPECT_EQ(pt->LogicalRows(), 50u);
  for (const auto& p : pt->partitions) {
    EXPECT_EQ(p.num_rows(), 50u);
  }
}

TEST(PartitionTest, RrefBehavesLikeReplicationHere) {
  Table t = KeyedTable(10);
  auto pt = Partition(t, Partitioning::kRref, "", 3);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt->LogicalRows(), 10u);
  EXPECT_EQ(pt->TotalRows(), 30u);
}

TEST(PartitionTest, RejectsBadArguments) {
  Table t = KeyedTable(5);
  EXPECT_FALSE(Partition(t, Partitioning::kHash, "k", 0).ok());
  EXPECT_FALSE(Partition(t, Partitioning::kHash, "missing", 2).ok());
}

TEST(DistributeTpchTest, UsesPaperLayout) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.002;
  auto db = datagen::GenerateTpch(opts);
  ASSERT_TRUE(db.ok());
  auto pd = DistributeTpch(*db, 4);
  ASSERT_TRUE(pd.ok()) << pd.status();
  EXPECT_EQ(pd->num_nodes, 4);
  EXPECT_EQ(pd->table(TpchTable::kLineitem).partitioning,
            Partitioning::kHash);
  EXPECT_EQ(pd->table(TpchTable::kOrders).partitioning, Partitioning::kHash);
  EXPECT_EQ(pd->table(TpchTable::kNation).partitioning,
            Partitioning::kReplicated);
  EXPECT_EQ(pd->table(TpchTable::kCustomer).partitioning,
            Partitioning::kRref);
  EXPECT_EQ(pd->table(TpchTable::kLineitem).LogicalRows(),
            db->lineitem.num_rows());
}

TEST(DistributeTpchTest, OrderkeyCoPartitioning) {
  // Every lineitem must sit on the same partition as its order: the
  // property that makes the paper's L-O join local.
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.002;
  auto db = datagen::GenerateTpch(opts);
  auto pd = DistributeTpch(*db, 4);
  ASSERT_TRUE(pd.ok());
  const auto& orders = pd->table(TpchTable::kOrders);
  const auto& lineitem = pd->table(TpchTable::kLineitem);
  for (size_t p = 0; p < 4; ++p) {
    std::set<int64_t> order_keys;
    for (const auto& row : orders.partitions[p].ToRows()) {
      order_keys.insert(row[0].AsInt64());
    }
    for (const auto& row : lineitem.partitions[p].ToRows()) {
      EXPECT_TRUE(order_keys.count(row[0].AsInt64()))
          << "lineitem not co-located with its order";
    }
  }
}

}  // namespace
}  // namespace xdbft::engine
