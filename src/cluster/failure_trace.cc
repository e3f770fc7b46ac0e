#include "cluster/failure_trace.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace xdbft::cluster {

FailureTrace::FailureTrace(double mtbf_seconds, uint64_t seed,
                           std::vector<double> scheduled)
    : mtbf_(mtbf_seconds), rng_(seed), scheduled_(std::move(scheduled)) {
  scheduled_.erase(std::remove_if(scheduled_.begin(), scheduled_.end(),
                                  [](double t) { return t <= 0.0; }),
                   scheduled_.end());
  std::sort(scheduled_.begin(), scheduled_.end());
}

void FailureTrace::ExtendPast(double t) {
  if (mtbf_ == kNeverFails) return;
  // Generate in chunks comfortably past t so repeated queries are cheap.
  while (generated_until_ <= t) {
    const double last = times_.empty() ? 0.0 : times_.back();
    const double next = last + rng_.NextExponential(mtbf_);
    times_.push_back(next);
    generated_until_ = next;
  }
}

size_t FailureTrace::CountFailuresUntil(double t) {
  if (t <= 0.0) return 0;
  size_t count = static_cast<size_t>(
      std::upper_bound(scheduled_.begin(), scheduled_.end(), t) -
      scheduled_.begin());
  if (mtbf_ != kNeverFails) {
    ExtendPast(t);
    count += static_cast<size_t>(
        std::upper_bound(times_.begin(), times_.end(), t) - times_.begin());
  }
  return count;
}

ClusterTrace ClusterTrace::Generate(const cost::ClusterStats& stats,
                                    uint64_t seed) {
  ClusterTrace ct;
  ct.nodes_.reserve(static_cast<size_t>(stats.num_nodes));
  for (int i = 0; i < stats.num_nodes; ++i) {
    uint64_t s = seed;
    // Derive a well-mixed per-node seed.
    s ^= 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    uint64_t state = s;
    ct.nodes_.emplace_back(stats.mtbf_seconds, SplitMix64(state));
  }
  return ct;
}

Status BurstOptions::Validate() const {
  if (!(mean_interval > 0.0)) {
    return Status::InvalidArgument("burst mean_interval must be > 0");
  }
  if (!(horizon > 0.0)) {
    return Status::InvalidArgument("burst horizon must be > 0");
  }
  if (width < 0.0) {
    return Status::InvalidArgument("burst width must be >= 0");
  }
  if (min_nodes < 1 || max_nodes < min_nodes) {
    return Status::InvalidArgument(
        "burst victim range requires 1 <= min_nodes <= max_nodes");
  }
  if (!(background_mtbf > 0.0)) {
    return Status::InvalidArgument("burst background_mtbf must be > 0");
  }
  return Status::OK();
}

ClusterTrace ClusterTrace::GenerateWithBursts(const cost::ClusterStats& stats,
                                              uint64_t seed,
                                              const BurstOptions& burst) {
  // The burst process draws from its own stream (decorrelated from the
  // per-node background seeds below) so adding bursts never perturbs the
  // background Poisson times of the plain Generate() trace for `seed`.
  uint64_t burst_state = seed ^ 0xd1b54a32d192ed03ULL;
  Rng rng(SplitMix64(burst_state));
  std::vector<std::vector<double>> scheduled(
      static_cast<size_t>(stats.num_nodes));
  std::vector<int> victims(static_cast<size_t>(stats.num_nodes));
  for (int i = 0; i < stats.num_nodes; ++i) {
    victims[static_cast<size_t>(i)] = i;
  }
  const int lo = std::min(burst.min_nodes, stats.num_nodes);
  const int hi = std::min(burst.max_nodes, stats.num_nodes);
  for (double t = rng.NextExponential(burst.mean_interval);
       t <= burst.horizon; t += rng.NextExponential(burst.mean_interval)) {
    rng.Shuffle(victims);
    const int count =
        lo + static_cast<int>(rng.NextBounded(
                 static_cast<uint64_t>(hi - lo) + 1));
    for (int v = 0; v < count; ++v) {
      scheduled[static_cast<size_t>(victims[static_cast<size_t>(v)])]
          .push_back(t + rng.NextDouble() * burst.width);
    }
  }
  ClusterTrace ct;
  ct.nodes_.reserve(static_cast<size_t>(stats.num_nodes));
  for (int i = 0; i < stats.num_nodes; ++i) {
    // Same per-node seed derivation as Generate() so the background
    // process is the plain trace for `seed` when background_mtbf matches.
    uint64_t s = seed;
    s ^= 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    uint64_t state = s;
    ct.nodes_.emplace_back(burst.background_mtbf, SplitMix64(state),
                           std::move(scheduled[static_cast<size_t>(i)]));
  }
  return ct;
}

ClusterTrace ClusterTrace::FromScheduled(
    std::vector<std::vector<double>> scheduled) {
  ClusterTrace ct;
  ct.nodes_.reserve(scheduled.size());
  for (auto& times : scheduled) {
    ct.nodes_.emplace_back(kNeverFails, 0, std::move(times));
  }
  return ct;
}

double ClusterTrace::NextFailureAfter(double t, int* which_node) {
  const std::greater<Entry> later;
  if (!(t >= cursor_)) {
    // First query, or a rewind: ask every node.
    heap_.clear();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const double f = nodes_[i].NextFailureAfter(t);
      if (f != kNeverFails) heap_.emplace_back(f, static_cast<int>(i));
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
  } else {
    // Only nodes whose next failure is no longer after t move on.
    while (!heap_.empty() && heap_.front().first <= t) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      Entry& e = heap_.back();
      e.first = nodes_[static_cast<size_t>(e.second)].NextFailureAfter(t);
      if (e.first == kNeverFails) {
        heap_.pop_back();
      } else {
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  cursor_ = t;
  const Entry next = heap_.empty() ? Entry{kNeverFails, -1} : heap_.front();
  if (which_node != nullptr) *which_node = next.second;
  return next.first;
}

std::vector<ClusterTrace> GenerateTraceSet(const cost::ClusterStats& stats,
                                           int count, uint64_t base_seed) {
  if (stats.has_bursts()) {
    // The burst process `stats` prices, with the kill window and horizon
    // of perf_correlated and correlated_model_vs_sim, over the independent
    // per-node process at stats.mtbf_seconds.
    BurstOptions burst;
    burst.mean_interval = stats.burst_mtbf_seconds;
    burst.horizon = 1.0e6;
    burst.width = 1.0;
    burst.min_nodes = std::max(
        1, static_cast<int>(std::lround(stats.burst_fanout * stats.num_nodes)));
    burst.max_nodes = burst.min_nodes;
    burst.background_mtbf = stats.mtbf_seconds;
    return GenerateBurstTraceSet(stats, burst, count, base_seed);
  }
  std::vector<ClusterTrace> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(ClusterTrace::Generate(
        stats, base_seed + 0x517cc1b727220a95ULL * static_cast<uint64_t>(i)));
  }
  return out;
}

std::vector<ClusterTrace> GenerateBurstTraceSet(
    const cost::ClusterStats& stats, const BurstOptions& burst, int count,
    uint64_t base_seed) {
  std::vector<ClusterTrace> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(ClusterTrace::GenerateWithBursts(
        stats,
        base_seed + 0x517cc1b727220a95ULL * static_cast<uint64_t>(i),
        burst));
  }
  return out;
}

}  // namespace xdbft::cluster
