#include "api/advisor_service.h"

#include <algorithm>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "ft/ft_cost.h"

namespace xdbft::api {

namespace {

// Map key: the 128-bit fingerprint hash. Entries additionally store the
// full canonical word stream; a lookup that matches the hash but not the
// words is a collision and is served by bypass, never from the entry.
using MapKey = std::pair<uint64_t, uint64_t>;

struct MapKeyHash {
  size_t operator()(const MapKey& k) const {
    return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace

// One cached answer: its full fingerprint (checked on every hit, so a
// hash collision never serves a foreign answer) and the decision without
// its plan and search counters — a hit rebuilds the plan from the
// caller's own candidates and ran no search.
struct AdvisorService::Entry {
  RequestFingerprint key;
  ft::SchemePlan decision;
};

struct AdvisorService::Shard {
  std::mutex mu;
  /// Front = most recently used.
  std::list<Entry> lru;
  std::unordered_map<MapKey, std::list<Entry>::iterator, MapKeyHash> index;
};

AdvisorService::AdvisorService(cost::ClusterStats default_cluster,
                               cost::CostModelParams default_model,
                               AdvisorServiceOptions options)
    : default_cluster_(default_cluster),
      default_model_(default_model),
      options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  const size_t n = static_cast<size_t>(options_.num_shards);
  shard_capacity_ = std::max<size_t>(1, (options_.cache_capacity + n - 1) / n);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

AdvisorService::~AdvisorService() = default;

AdvisorService::Shard& AdvisorService::ShardFor(
    const RequestFingerprint& fp) const {
  return *shards_[fp.hi % shards_.size()];
}

Result<ft::SchemePlan> AdvisorService::Enumerate(
    const AdvisorRequest& request) {
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  return ft::ApplyCostBasedScheme(request.candidates, context,
                                  options_.enumeration);
}

Result<ft::SchemePlan> AdvisorService::AdviseCached(
    const AdvisorRequest& request, const RequestFingerprint& fp) {
  Shard& shard = ShardFor(fp);
  const MapKey key{fp.hi, fp.lo};

  std::optional<ft::SchemePlan> hit;
  bool collision = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      if (it->second->key == fp) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hit = it->second->decision;
      } else {
        // 128-bit hash collision with a different canonical request.
        collision = true;
      }
    }
  }

  if (collision) {
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    return Enumerate(request);
  }

  if (hit.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit->plan_index >= request.candidates.size()) {
      return Status::Internal(
          "advisor cache entry references a candidate index out of range");
    }
    hit->plan = request.candidates[hit->plan_index];
    return *std::move(hit);
  }

  // Miss: enumerate with no lock held. Concurrent misses of one key each
  // enumerate; the enumerator is deterministic in the fingerprinted
  // inputs, so whichever inserts first caches the same answer.
  misses_.fetch_add(1, std::memory_order_relaxed);
  Result<ft::SchemePlan> result = Enumerate(request);
  if (!result.ok()) return result;  // errors are never cached
  Entry entry{fp, result.ValueOrDie()};
  entry.decision.plan = plan::Plan{};
  entry.decision.stats = ft::EnumerationStats{};
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.find(key) == shard.index.end()) {
      shard.lru.push_front(std::move(entry));
      shard.index.emplace(key, shard.lru.begin());
      while (shard.lru.size() > shard_capacity_) {
        const RequestFingerprint& victim = shard.lru.back().key;
        shard.index.erase(MapKey{victim.hi, victim.lo});
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return result;
}

Result<ft::SchemePlan> AdvisorService::Advise(const AdvisorRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Result<ft::SchemePlan> out = [&]() -> Result<ft::SchemePlan> {
    if (!options_.cache_enabled) {
      bypassed_.fetch_add(1, std::memory_order_relaxed);
      return Enumerate(request);
    }
    ft::FtCostContext context;
    context.cluster = request.cluster;
    context.model = request.model;
    const RequestFingerprint fp =
        FingerprintRequest(request.candidates, context, options_.enumeration);
    return AdviseCached(request, fp);
  }();
  if (!out.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<ft::SchemePlan> AdvisorService::Advise(const plan::Plan& plan) {
  AdvisorRequest request;
  request.candidates.push_back(plan);
  request.cluster = default_cluster_;
  request.model = default_model_;
  return Advise(request);
}

AdvisorServiceStats AdvisorService::stats() const {
  AdvisorServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
  }
  return s;
}

}  // namespace xdbft::api
