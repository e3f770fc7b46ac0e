#include "api/advisor_service.h"

#include <algorithm>
#include <condition_variable>
#include <list>
#include <mutex>
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

// One cache slot. Lifecycle: inserted into the shard map in the
// "computing" state (ready == false) by the coalescing owner; waiters
// block on cv. The owner publishes the decision (or error) under mu, then
// links the entry into the shard LRU (errors are erased instead — never
// cached). `memo` is created with the entry and shared with the
// enumeration as its rule-3 dominant-path memo; on eviction it is parked
// in the shard memo cache for second-chance warm starts.
struct AdvisorService::Entry {
  RequestFingerprint key;

  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;      // guarded by mu
  Status status;           // guarded by mu once ready
  /// The answer without its plan and search counters, immutable once
  /// ready: a hit rebuilds the plan from the caller's own candidates and
  /// ran no search.
  ft::SchemePlan decision;

  std::shared_ptr<ft::ConcurrentDominantPathMemo> memo;

  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> coalesced{0};

  // LRU bookkeeping, guarded by the owning shard's mutex.
  bool in_lru = false;
  std::list<std::shared_ptr<Entry>>::iterator lru_it;
};

struct AdvisorService::Shard {
  mutable std::mutex mu;
  std::unordered_map<MapKey, std::shared_ptr<Entry>, MapKeyHash> entries;
  /// Ready entries only, front = most recently used.
  std::list<std::shared_ptr<Entry>> lru;

  // Second-chance memo cache: dominant-path memos of evicted entries,
  // keyed by the full fingerprint (hash collisions are re-checked against
  // the stored key before adoption). Front = most recently parked.
  using ParkedMemo =
      std::pair<RequestFingerprint,
                std::shared_ptr<ft::ConcurrentDominantPathMemo>>;
  std::list<ParkedMemo> memo_lru;
  std::unordered_map<MapKey, std::list<ParkedMemo>::iterator, MapKeyHash>
      memos;
};

AdvisorService::AdvisorService(cost::ClusterStats default_cluster,
                               cost::CostModelParams default_model,
                               AdvisorServiceOptions options)
    : default_cluster_(default_cluster),
      default_model_(default_model),
      options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.max_inflight < 0) options_.max_inflight = 0;
  const size_t n = static_cast<size_t>(options_.num_shards);
  shard_capacity_ = std::max<size_t>(1, (options_.cache_capacity + n - 1) / n);
  memo_shard_capacity_ =
      options_.memo_cache_capacity == 0
          ? 0
          : std::max<size_t>(1, (options_.memo_cache_capacity + n - 1) / n);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

AdvisorService::~AdvisorService() = default;

AdvisorService::Shard& AdvisorService::ShardFor(
    const RequestFingerprint& fp) const {
  return *shards_[fp.hi % shards_.size()];
}

Result<ft::SchemePlan> AdvisorService::Enumerate(
    const AdvisorRequest& request, ft::ConcurrentDominantPathMemo* memo) {
  ft::FtCostContext context;
  context.cluster = request.cluster;
  context.model = request.model;
  ft::EnumerationOptions opts = options_.enumeration;
  opts.shared_memo = memo;
  return ft::ApplyCostBasedScheme(request.candidates, context, opts);
}

Result<ft::SchemePlan> AdvisorService::AdviseCached(
    const AdvisorRequest& request, const RequestFingerprint& fp) {
  Shard& shard = ShardFor(fp);
  const MapKey key{fp.hi, fp.lo};

  std::shared_ptr<Entry> entry;
  bool owner = false;
  bool bypass = false;
  bool warm = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      if (it->second->key == fp) {
        entry = it->second;
      } else {
        // 128-bit hash collision with a different canonical request.
        bypass = true;
      }
    } else if (inflight_.load(std::memory_order_relaxed) >=
               static_cast<uint64_t>(options_.max_inflight)) {
      // Admission bound: too many distinct enumerations already running.
      bypass = true;
    } else {
      entry = std::make_shared<Entry>();
      entry->key = fp;
      const auto mit = shard.memos.find(key);
      if (mit != shard.memos.end() && mit->second->first == fp) {
        entry->memo = std::move(mit->second->second);
        shard.memo_lru.erase(mit->second);
        shard.memos.erase(mit);
        warm = true;
      } else {
        entry->memo = std::make_shared<ft::ConcurrentDominantPathMemo>();
      }
      shard.entries.emplace(key, entry);
      inflight_.fetch_add(1, std::memory_order_relaxed);
      owner = true;
    }
  }

  if (bypass) {
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    return Enumerate(request, nullptr);
  }

  if (owner) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (warm) {
      memo_warm_starts_.fetch_add(1, std::memory_order_relaxed);
    }
    Result<ft::SchemePlan> result = Enumerate(request, entry->memo.get());
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      entry->ready = true;
      if (result.ok()) {
        entry->decision = result.ValueOrDie();
        entry->decision.plan = plan::Plan{};
        entry->decision.stats = ft::EnumerationStats{};
      } else {
        entry->status = result.status();
      }
    }
    entry->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      if (!result.ok()) {
        // Errors are never cached: later requests retry from scratch.
        const auto it = shard.entries.find(key);
        if (it != shard.entries.end() && it->second == entry) {
          shard.entries.erase(it);
        }
      } else {
        shard.lru.push_front(entry);
        entry->lru_it = shard.lru.begin();
        entry->in_lru = true;
        while (shard.lru.size() > shard_capacity_) {
          std::shared_ptr<Entry> victim = std::move(shard.lru.back());
          shard.lru.pop_back();
          victim->in_lru = false;
          shard.entries.erase(MapKey{victim->key.hi, victim->key.lo});
          evictions_.fetch_add(1, std::memory_order_relaxed);
          if (memo_shard_capacity_ > 0) {
            const MapKey vkey{victim->key.hi, victim->key.lo};
            const auto old = shard.memos.find(vkey);
            if (old != shard.memos.end()) {
              shard.memo_lru.erase(old->second);
              shard.memos.erase(old);
            }
            shard.memo_lru.emplace_front(std::move(victim->key),
                                         std::move(victim->memo));
            shard.memos[vkey] = shard.memo_lru.begin();
            while (shard.memo_lru.size() > memo_shard_capacity_) {
              const auto& back = shard.memo_lru.back();
              shard.memos.erase(MapKey{back.first.hi, back.first.lo});
              shard.memo_lru.pop_back();
            }
          }
        }
      }
    }
    return result;
  }

  // Found a live entry for this key: serve from it (hit) or wait on the
  // in-flight enumeration (coalesced).
  bool was_hit = false;
  Status status;
  ft::SchemePlan out;
  {
    std::unique_lock<std::mutex> entry_lock(entry->mu);
    if (entry->ready) {
      was_hit = true;
    } else {
      entry->coalesced.fetch_add(1, std::memory_order_relaxed);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      entry->cv.wait(entry_lock, [&] { return entry->ready; });
    }
    status = entry->status;
    if (status.ok()) out = entry->decision;
  }
  if (was_hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    entry->hits.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (entry->in_lru) {
      shard.lru.splice(shard.lru.begin(), shard.lru, entry->lru_it);
      entry->lru_it = shard.lru.begin();
    }
  }
  if (!status.ok()) return status;
  if (out.plan_index >= request.candidates.size()) {
    return Status::Internal(
        "advisor cache entry references a candidate index out of range");
  }
  out.plan = request.candidates[out.plan_index];
  return out;
}

Result<ft::SchemePlan> AdvisorService::Advise(const AdvisorRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Result<ft::SchemePlan> out = [&]() -> Result<ft::SchemePlan> {
    if (!options_.cache_enabled) {
      bypassed_.fetch_add(1, std::memory_order_relaxed);
      return Enumerate(request, nullptr);
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
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  s.memo_warm_starts = memo_warm_starts_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
    s.memo_entries += shard->memo_lru.size();
  }
  return s;
}

}  // namespace xdbft::api
