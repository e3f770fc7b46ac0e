// AdvisorService: the long-lived, cache-backed serving layer over
// findBestFTPlan. Where ft::ApplyCostBasedScheme answers one request,
// AdvisorService answers a sustained stream of best-FT-plan requests at
// high QPS:
//
//   * a sharded cross-request cache of enumeration results keyed on the
//     canonical request fingerprint (api/fingerprint.h) with LRU eviction
//     under a bounded capacity;
//   * request coalescing: concurrent requests with equal fingerprints
//     share one enumeration — the first becomes the owner, the rest block
//     on its completion and receive the same answer;
//   * a second-chance memo cache: evicting a result parks its rule-3
//     dominant-path memo, so re-enumerating an evicted key warm-starts
//     pruning (bit-identical answer, less work; ft/enumerator.h
//     shared_memo contract);
//   * bounded admission: at most max_inflight distinct enumerations run
//     concurrently; excess misses bypass the cache and enumerate
//     uncached, so an overload of cold keys cannot wedge the cache.
//
// Serving invariant: a cached, coalesced, warm-started or bypassed answer
// — plan index, configuration, cost, placement and recovery mode — is
// bit-identical to a fresh one-shot ApplyCostBasedScheme of the same
// request: the cache can only change latency, never the plan (DESIGN.md
// §12). Only a miss carries search counters (SchemePlan::stats). The
// fingerprint covers the cluster statistics (MTBF, burst MTBF, fanout,
// placement), so a changed cluster is a different key: no cached entry
// ever goes stale and nothing needs invalidating.
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
  /// Parked dominant-path memos of evicted results (second-chance warm
  /// starts); 0 disables the memo cache.
  size_t memo_cache_capacity = 1024;
  /// Cache shards; the fingerprint's high hash word selects the shard.
  int num_shards = 8;
  /// Concurrent distinct enumerations admitted into the cache; further
  /// misses enumerate uncached (counted as bypassed). 0 = never admit
  /// (every request bypasses; useful as a no-cache baseline).
  int max_inflight = 64;
  /// false = serve every request by fresh enumeration (cold baseline for
  /// the perf_advisor load generator).
  bool cache_enabled = true;
  /// Enumeration configuration shared by every request (pruning rules,
  /// per-enumeration worker threads). trace/shared_memo are overridden
  /// per call by the service.
  ft::EnumerationOptions enumeration;
};

/// \brief Monotonic serving counters (snapshot via AdvisorService::stats).
struct AdvisorServiceStats {
  uint64_t requests = 0;
  /// Served from a ready cache entry (no enumeration, no waiting).
  uint64_t hits = 0;
  /// Enumerated and inserted (the coalescing owners).
  uint64_t misses = 0;
  /// Waited on another request's in-flight enumeration of the same key.
  uint64_t coalesced = 0;
  /// Ready entries evicted by LRU.
  uint64_t evictions = 0;
  /// Enumerated uncached: admission bound hit, cache disabled, or a
  /// 128-bit hash collision with a different canonical key.
  uint64_t bypassed = 0;
  /// Misses whose enumeration started from a parked (evicted) memo.
  uint64_t memo_warm_starts = 0;
  /// Requests answered with a non-OK status (never cached).
  uint64_t errors = 0;
  /// Point-in-time: distinct enumerations currently running under the
  /// admission bound, and ready entries resident across all shards.
  uint64_t inflight = 0;
  uint64_t entries = 0;
  uint64_t memo_entries = 0;

  /// \brief Fraction of requests served from a ready entry.
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
  /// Thread-safe; concurrent equal requests share one enumeration.
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
  /// \brief One fresh answer, uncached: ApplyCostBasedScheme with `memo`
  /// (may be null) as its shared rule-3 memo, so a served answer has
  /// exactly the one-shot answer's shape, recovery mode included.
  Result<ft::SchemePlan> Enumerate(const AdvisorRequest& request,
                                   ft::ConcurrentDominantPathMemo* memo);
  Result<ft::SchemePlan> AdviseCached(const AdvisorRequest& request,
                                      const RequestFingerprint& fp);

  cost::ClusterStats default_cluster_;
  cost::CostModelParams default_model_;
  AdvisorServiceOptions options_;
  size_t shard_capacity_ = 0;       // ready entries per shard
  size_t memo_shard_capacity_ = 0;  // parked memos per shard

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bypassed_{0};
  std::atomic<uint64_t> memo_warm_starts_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> inflight_{0};
};

}  // namespace xdbft::api
