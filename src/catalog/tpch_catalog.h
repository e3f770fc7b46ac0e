// TPC-H schema metadata: table cardinalities as a function of scale factor,
// row widths, and the partitioning layout used by the paper's XDB testbed
// (§5.1: LINEITEM/ORDERS hash co-partitioned on orderkey; CUSTOMER,
// PARTSUPP, SUPPLIER RREF-partitioned; NATION/REGION replicated).
#pragma once

#include <string>
#include <vector>

#include "common/result.h"

namespace xdbft::catalog {

enum class TpchTable : int {
  kRegion,
  kNation,
  kSupplier,
  kCustomer,
  kPart,
  kPartSupp,
  kOrders,
  kLineitem,
};

constexpr int kNumTpchTables = 8;

const char* TpchTableName(TpchTable t);

/// \brief How a table is laid out across the cluster (§5.1).
enum class Partitioning : int {
  /// Full copy on every node (NATION, REGION).
  kReplicated,
  /// Hash-partitioned on a key (LINEITEM, ORDERS on orderkey).
  kHash,
  /// Redundantly referenced partitioning [8]: tuples partially replicated
  /// to co-locate joins (CUSTOMER, PARTSUPP, SUPPLIER).
  kRref,
};

/// \brief Static description of one TPC-H table.
struct TpchTableInfo {
  TpchTable table;
  std::string name;
  /// Rows at SF = 1 (LINEITEM uses the official 6,001,215).
  double base_rows;
  /// True for NATION/REGION, whose size does not scale with SF.
  bool fixed_size;
  /// Approximate row width in bytes.
  double row_width_bytes;
  Partitioning partitioning;
  std::string partition_key;
};

/// \brief Catalog for a TPC-H database of a given scale factor.
class TpchCatalog {
 public:
  explicit TpchCatalog(double scale_factor);

  double scale_factor() const { return scale_factor_; }

  const TpchTableInfo& info(TpchTable t) const;
  const std::vector<TpchTableInfo>& tables() const { return tables_; }

  /// \brief Row count of `t` at this scale factor.
  double Rows(TpchTable t) const;

  /// \brief Total size of `t` in bytes.
  double Bytes(TpchTable t) const;

  /// \brief Well-known selectivity of classic TPC-H predicates used by the
  /// benchmark queries (e.g. one REGION out of five, one year of ORDERS).
  static double RegionSelectivity() { return 1.0 / 5.0; }
  static double OrderDateYearSelectivity() { return 1.0 / 7.0; }
  static double LineitemShipdateQ1Selectivity() { return 0.98; }
  static double Q3SegmentSelectivity() { return 1.0 / 5.0; }
  static double Q3DateSelectivity() { return 0.48; }
  static double Q2PartTypeSelectivity() { return 1.0 / 25.0; }

 private:
  double scale_factor_;
  std::vector<TpchTableInfo> tables_;
};

}  // namespace xdbft::catalog
