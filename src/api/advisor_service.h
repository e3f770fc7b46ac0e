// AdvisorService: the long-lived, cache-backed serving layer over
// findBestFTPlan. Where ft::ApplyCostBasedScheme answers one request,
// AdvisorService answers a sustained stream of best-FT-plan requests from
// one sharded LRU cache of answers keyed on the canonical request
// fingerprint (api/fingerprint.h). A hit copies the cached decision; a
// miss enumerates with no lock held and inserts its answer unless a
// concurrent miss of the same key already did. Errors are never cached,
// and a 128-bit hash collision with a different canonical request is
// served by fresh enumeration, never from the entry.
//
// Serving invariant: a cached or bypassed answer — plan index,
// configuration, cost and recovery mode — is bit-identical to a fresh
// one-shot ApplyCostBasedScheme of the same request: the cache can only
// change latency, never the plan (DESIGN.md §12). Only a miss carries
// search counters (SchemePlan::stats). The fingerprint covers the cluster
// statistics (MTBF, burst MTBF, fanout), so a changed cluster is a
// different key: no cached entry ever goes stale and nothing needs
// invalidating.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/fingerprint.h"
#include "common/result.h"
#include "ft/scheme.h"

namespace xdbft::api {

/// \brief One best-FT-plan request: the optimizer's candidate plans plus
/// the cluster state and model constants they should be judged under.
struct AdvisorRequest {
  std::vector<plan::Plan> candidates;
  cost::ClusterStats cluster;
  cost::CostModelParams model;
};

/// \brief Serving knobs.
struct AdvisorServiceOptions {
  /// Cached results across all shards; at least one per shard is kept.
  size_t cache_capacity = 4096;
  /// Cache shards; the fingerprint's high hash word selects the shard.
  int num_shards = 8;
  /// false = serve every request by fresh enumeration (the uncached
  /// baseline a caller measures the cache against).
  bool cache_enabled = true;
  /// Enumeration configuration shared by every request (pruning rules,
  /// per-enumeration worker threads).
  ft::EnumerationOptions enumeration;
};

/// \brief Monotonic serving counters (snapshot via AdvisorService::stats).
struct AdvisorServiceStats {
  uint64_t requests = 0;
  /// Served from a cache entry (no enumeration).
  uint64_t hits = 0;
  /// Enumerated on a cache miss (the answer is inserted unless it is an
  /// error or a concurrent miss of the same key inserted it first).
  uint64_t misses = 0;
  /// Entries evicted by LRU.
  uint64_t evictions = 0;
  /// Enumerated uncached: cache disabled, or a 128-bit hash collision
  /// with a different canonical key.
  uint64_t bypassed = 0;
  /// Always 0: no enumeration starts from an earlier search's memo. Kept
  /// only because perfbench's plan_validate reports it as
  /// api.memo_warm_starts; it goes when that metric does.
  uint64_t memo_warm_starts = 0;
  /// Requests answered with a non-OK status (never cached).
  uint64_t errors = 0;
  /// Point-in-time: entries resident across all shards.
  uint64_t entries = 0;

  /// \brief Fraction of requests served from a cache entry.
  double hit_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
};

class AdvisorService {
 public:
  /// \brief `default_cluster`/`default_model` serve the single-plan
  /// convenience overload; explicit AdvisorRequests carry their own.
  explicit AdvisorService(cost::ClusterStats default_cluster,
                          cost::CostModelParams default_model = {},
                          AdvisorServiceOptions options = {});
  ~AdvisorService();

  AdvisorService(const AdvisorService&) = delete;
  AdvisorService& operator=(const AdvisorService&) = delete;

  /// \brief Answer one request, serving from the cache when possible.
  /// Thread-safe.
  Result<ft::SchemePlan> Advise(const AdvisorRequest& request);

  /// \brief Convenience: one plan under the service's default cluster
  /// state and model constants.
  Result<ft::SchemePlan> Advise(const plan::Plan& plan);

  AdvisorServiceStats stats() const;

  const AdvisorServiceOptions& options() const { return options_; }

 private:
  struct Entry;
  struct Shard;

  Shard& ShardFor(const RequestFingerprint& fp) const;
  /// \brief One fresh answer, uncached: ApplyCostBasedScheme, so a served
  /// answer has exactly the one-shot answer's shape, recovery mode
  /// included.
  Result<ft::SchemePlan> Enumerate(const AdvisorRequest& request);
  Result<ft::SchemePlan> AdviseCached(const AdvisorRequest& request,
                                      const RequestFingerprint& fp);

  cost::ClusterStats default_cluster_;
  cost::CostModelParams default_model_;
  AdvisorServiceOptions options_;
  size_t shard_capacity_ = 0;  // entries per shard

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bypassed_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace xdbft::api
