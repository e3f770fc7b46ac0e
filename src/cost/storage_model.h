// Storage-medium model used to derive materialization costs tm(o) from
// output cardinalities (paper §2.1: "these estimates are calculated based on
// input/output cardinalities of each operator").
#pragma once

namespace xdbft::cost {

/// \brief The fault-tolerant store to which intermediates are materialized.
///
/// The paper's testbed materializes sub-plan output to an external iSCSI
/// store over 1 GbE; we model it by sequential bandwidth and a fixed
/// per-materialization latency. Partition-parallel writes from n nodes share
/// the medium's aggregate bandwidth.
struct StorageMedium {
  /// Aggregate sequential write bandwidth of the medium, bytes/second.
  double write_bandwidth_bps = 110.0 * 1024 * 1024;  // ~1GbE iSCSI
  /// Fixed setup latency per materialized intermediate, seconds.
  double latency_seconds = 0.05;

  /// \brief tm: seconds to write `rows` rows of `width` bytes.
  double WriteSeconds(double rows, double width_bytes) const {
    return latency_seconds + rows * width_bytes / write_bandwidth_bps;
  }
};

/// \brief The paper's external iSCSI store (the StorageMedium defaults).
inline StorageMedium ExternalIscsiStorage() { return StorageMedium{}; }

}  // namespace xdbft::cost
