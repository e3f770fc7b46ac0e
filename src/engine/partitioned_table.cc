#include "engine/partitioned_table.h"

namespace xdbft::engine {

using catalog::Partitioning;
using catalog::TpchTable;
using exec::Table;

size_t PartitionedTable::TotalRows() const {
  size_t total = 0;
  for (const auto& p : partitions) total += p.num_rows();
  return total;
}

size_t PartitionedTable::LogicalRows() const {
  if (partitioning == Partitioning::kHash) return TotalRows();
  return partitions.empty() ? 0 : partitions[0].num_rows();
}

Result<PartitionedTable> Partition(const Table& table,
                                   Partitioning partitioning,
                                   const std::string& key_column,
                                   int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionedTable out;
  out.partitioning = partitioning;
  if (partitioning == Partitioning::kHash) {
    XDBFT_ASSIGN_OR_RETURN(out.key_column, table.schema.Find(key_column));
    XDBFT_ASSIGN_OR_RETURN(
        out.partitions,
        exec::HashPartition(table, out.key_column,
                            static_cast<size_t>(num_partitions)));
  } else {
    // Replicated and RREF tables: every node holds the whole table (RREF's
    // partial replication is simulated conservatively; the co-location
    // property is what matters for the execution plans). The copies share
    // the table's chunks.
    out.partitions.assign(static_cast<size_t>(num_partitions), table);
  }
  return out;
}

Result<PartitionedDatabase> DistributeTpch(const datagen::TpchDatabase& db,
                                           int num_nodes) {
  PartitionedDatabase out;
  out.num_nodes = num_nodes;
  struct Layout {
    TpchTable table;
    Partitioning partitioning;
    const char* key;
  };
  const Layout layouts[] = {
      {TpchTable::kRegion, Partitioning::kReplicated, ""},
      {TpchTable::kNation, Partitioning::kReplicated, ""},
      {TpchTable::kSupplier, Partitioning::kRref, ""},
      {TpchTable::kCustomer, Partitioning::kRref, ""},
      {TpchTable::kPart, Partitioning::kRref, ""},
      {TpchTable::kPartSupp, Partitioning::kRref, ""},
      {TpchTable::kOrders, Partitioning::kHash, "o_orderkey"},
      {TpchTable::kLineitem, Partitioning::kHash, "l_orderkey"},
  };
  for (const auto& layout : layouts) {
    XDBFT_ASSIGN_OR_RETURN(
        PartitionedTable pt,
        Partition(db.table(layout.table), layout.partitioning, layout.key,
                  num_nodes));
    out.tables.emplace(layout.table, std::move(pt));
  }
  return out;
}

}  // namespace xdbft::engine
