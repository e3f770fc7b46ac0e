// Per-operator costs tr(o)/tm(o) of the paper-scale analytic model (§5.1):
// one rate struct and one formula per cost, shared by the TPC-H plan
// builders (tpch::BuildQuery, whose TpchPlanConfig extends the struct) and
// by join-tree costing and plan emission (TreeCost, EmitPlan).
//
// Costs are accumulated partition-parallel costs: row counts are divided
// by the number of nodes, matching the paper's definition of tr/tm
// ("given for partition parallel execution").
#pragma once

#include <algorithm>

#include "cost/storage_model.h"

namespace xdbft::optimizer {

/// \brief Execution rates of the paper's MySQL-backed XDB executors and
/// of their shared fault-tolerant store.
struct PhysicalCostParams {
  int num_nodes = 10;

  /// Per-node processing rates, rows/second.
  double scan_rows_per_sec = 400e3;
  double probe_rows_per_sec = 80e3;
  double build_rows_per_sec = 300e3;
  double agg_rows_per_sec = 200e3;
  double output_rows_per_sec = 1e6;

  /// Effective aggregate bandwidth of the fault-tolerant store shared by
  /// all nodes (iSCSI over 1 GbE incl. contention and MySQL temp-table
  /// insert overhead), bytes/second.
  double storage_bandwidth_bps = 16.5 * 1024 * 1024;
  double storage_latency_seconds = 0.05;

  /// \brief tr of a scan: it reads all `base_rows` of the table,
  /// regardless of predicate selectivity.
  double ScanCost(double base_rows) const {
    return base_rows / nodes() / scan_rows_per_sec;
  }

  /// \brief tr of a hash join of inputs with `l_rows` and `r_rows` rows
  /// producing `out_rows`: it builds on the smaller input and probes with
  /// the larger one.
  double JoinCost(double l_rows, double r_rows, double out_rows) const {
    const double build_rows = std::min(l_rows, r_rows);
    const double probe_rows = std::max(l_rows, r_rows);
    return build_rows / nodes() / build_rows_per_sec +
           probe_rows / nodes() / probe_rows_per_sec +
           out_rows / nodes() / output_rows_per_sec;
  }

  /// \brief tr of an aggregation (or sort) consuming `in_rows` rows.
  double AggregateCost(double in_rows) const {
    return in_rows / nodes() / agg_rows_per_sec;
  }

  /// \brief tm: writing `rows` rows of `width` bytes to the shared store.
  double MatCost(double rows, double width) const {
    return cost::StorageMedium{storage_bandwidth_bps, storage_latency_seconds}
        .WriteSeconds(rows, width);
  }

 private:
  double nodes() const { return static_cast<double>(num_nodes); }
};

}  // namespace xdbft::optimizer
