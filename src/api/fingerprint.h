// Canonical fingerprint of one advisory request: the exact inputs of
// findBestFTPlan — candidate plan shapes with their tr/tm statistics,
// cluster statistics (n, MTBF, MTTR), cost-model constants and the pruning
// configuration — folded into a canonical word stream plus a 128-bit hash.
//
// Two requests with equal fingerprints are guaranteed to receive the same
// [P, M_P] from the enumerator (it is deterministic in these inputs), so
// the AdvisorService can serve one request's answer to the other. Display
// properties that cannot influence the choice — plan names and operator
// labels — are deliberately excluded: renaming every node of a plan yields
// the same fingerprint ("same plan shape, same key").
//
// Collision safety: the AdvisorService compares the full canonical word
// stream, not just the 128-bit hash, before serving a cached answer; a
// hash collision therefore degrades to a cache bypass, never to a wrong
// plan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ft/enumerator.h"
#include "plan/plan.h"

namespace xdbft::api {

/// \brief Canonical identity of one best-FT-plan request.
struct RequestFingerprint {
  /// 128-bit hash of `words` (two independently seeded lanes); the cache's
  /// shard selector and map key.
  uint64_t hi = 0;
  uint64_t lo = 0;
  /// The canonical encoding itself, kept for exact equality checks.
  std::vector<uint64_t> words;

  bool operator==(const RequestFingerprint& other) const {
    return hi == other.hi && lo == other.lo && words == other.words;
  }
  bool operator!=(const RequestFingerprint& other) const {
    return !(*this == other);
  }

  /// \brief 32-hex-digit rendering of the hash (log/debug identity).
  std::string Hex() const;
};

/// \brief Fingerprint the inputs of one ApplyCostBasedScheme call.
///
/// Covered: per candidate, in order, every node's input edges, operator
/// type, materialization constraint, tr(o), tm(o), output cardinality and
/// row width; the cluster statistics; the cost-model constants; the
/// pruning rules and max_free_operators. Excluded: plan names, node
/// labels (renaming-invariant) and execution knobs that cannot change the
/// chosen plan (num_threads, trace sinks).
///
/// Candidate order matters: the enumerator's deterministic tie-break is
/// (cost, plan index, mask), so permuting candidates can change which of
/// two cost-tied plans wins.
RequestFingerprint FingerprintRequest(
    const std::vector<plan::Plan>& candidates, const ft::FtCostContext& context,
    const ft::EnumerationOptions& options);

}  // namespace xdbft::api
