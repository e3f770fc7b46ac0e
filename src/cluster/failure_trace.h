// Failure traces: per-node failure timestamps with exponential
// inter-arrival times (paper §2.2 and §5.1: "we created 10 failure traces
// for each unique MTBF using an exponential distribution where
// lambda = 1/MTBF and used the same set of traces for injecting failures").
#pragma once

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cost/cost_params.h"

namespace xdbft::cluster {

constexpr double kNeverFails = std::numeric_limits<double>::infinity();

/// \brief Failure timestamps of a single node. Times are generated lazily
/// and deterministically from the seed, so a trace can be queried
/// arbitrarily far into simulated time.
class FailureTrace {
 public:
  FailureTrace() : FailureTrace(kNeverFails, 0) {}

  /// \brief A node failing on average every `mtbf_seconds` (exponential
  /// inter-arrivals). Pass kNeverFails for a failure-free node.
  FailureTrace(double mtbf_seconds, uint64_t seed)
      : mtbf_(mtbf_seconds), rng_(seed) {}

  /// \brief Like above, plus a fixed list of `scheduled` failure times
  /// superimposed on the Poisson process (used for correlated burst
  /// injection, where one event strikes several nodes at once). The list
  /// is sorted internally; non-positive entries are ignored.
  FailureTrace(double mtbf_seconds, uint64_t seed,
               std::vector<double> scheduled);

  /// \brief Earliest failure time strictly greater than `t`. Inline: the
  /// simulator asks it once per retry unit.
  double NextFailureAfter(double t) {
    double next = kNeverFails;
    if (mtbf_ != kNeverFails) {
      if (generated_until_ <= t) ExtendPast(t);
      // Now times_.back() > t.
      next = *std::upper_bound(times_.begin(), times_.end(), t);
    }
    if (!scheduled_.empty()) {
      auto it = std::upper_bound(scheduled_.begin(), scheduled_.end(), t);
      if (it != scheduled_.end()) next = std::min(next, *it);
    }
    return next;
  }

  /// \brief Number of failures in (0, t]. Extends the trace as needed.
  size_t CountFailuresUntil(double t);

  double mtbf() const { return mtbf_; }

 private:
  /// Ascending failure times: a vector whose first few elements live
  /// inline. A simulated query sees one or two failures per node, so a
  /// heap block per node trace would be most of the simulator's
  /// allocations.
  class TimeList {
   public:
    const double* begin() const { return data(); }
    const double* end() const { return data() + size_; }
    bool empty() const { return size_ == 0; }
    double back() const { return data()[size_ - 1]; }
    void push_back(double t) {
      if (size_ < kInline) {
        inline_[size_++] = t;
        return;
      }
      if (size_ == kInline) spilled_.assign(inline_, inline_ + kInline);
      spilled_.push_back(t);
      ++size_;
    }

   private:
    static constexpr size_t kInline = 4;
    const double* data() const {
      return size_ <= kInline ? inline_ : spilled_.data();
    }
    double inline_[kInline] = {};
    size_t size_ = 0;
    std::vector<double> spilled_;  // all times, once there are > kInline
  };

  void ExtendPast(double t);

  double mtbf_;
  Rng rng_;
  TimeList times_;
  /// Deterministic extra failures merged into the process at query time.
  std::vector<double> scheduled_;
  double generated_until_ = 0.0;
};

/// \brief Correlated multi-node failure bursts: realistic traces (rack
/// power events, switch failures, cascading OOM) are not independent
/// per-node Poisson processes — several nodes die inside one short
/// window. A burst process with exponential inter-arrival `mean_interval`
/// picks `min_nodes..max_nodes` distinct victims per burst and schedules
/// one failure for each inside `[burst_time, burst_time + width]`.
struct BurstOptions {
  /// Mean seconds between bursts (exponential inter-arrivals).
  double mean_interval = 600.0;
  /// Bursts are generated on (0, horizon]; beyond it only the background
  /// per-node Poisson process fires.
  double horizon = 1.0e5;
  /// Width of the kill window: victims fail at burst_time + U*[0, width].
  double width = 2.0;
  /// Victims per burst, uniform in [min_nodes, max_nodes], capped at the
  /// cluster size.
  int min_nodes = 2;
  int max_nodes = 4;
  /// Per-node MTBF of the background Poisson process superimposed under
  /// the bursts; kNeverFails disables it (bursts only).
  double background_mtbf = kNeverFails;

  Status Validate() const;
};

/// \brief One failure trace per cluster node, plus a merged cluster-wide
/// view of them: a min-heap of (next failure after the last query time,
/// node), so a walk forward in time touches only the nodes that failed
/// since the previous query instead of every node's trace.
class ClusterTrace {
 public:
  /// \brief Independent per-node traces; node i is seeded with
  /// hash(seed, i) so different seeds give statistically independent trace
  /// sets (the "10 traces per MTBF" of §5.1 are seeds 0..9).
  static ClusterTrace Generate(const cost::ClusterStats& stats,
                               uint64_t seed);

  /// \brief Burst traces per `burst` (correlated multi-node failures) on
  /// top of the background Poisson process burst.background_mtbf (NOT
  /// stats.mtbf_seconds, which describes the independent model the
  /// analytic layers assume). Deterministic in `seed`.
  static ClusterTrace GenerateWithBursts(const cost::ClusterStats& stats,
                                         uint64_t seed,
                                         const BurstOptions& burst);

  /// \brief A fully deterministic trace: node i fails exactly at
  /// `scheduled[i]` (sorted internally, non-positive entries ignored) and
  /// never otherwise. For crafted regression tests of detection / MTTR
  /// timing.
  static ClusterTrace FromScheduled(
      std::vector<std::vector<double>> scheduled);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// \brief Node i's trace. Querying it never disturbs the merged view:
  /// a node's failure times are fixed by its seed, and a query only
  /// generates more of them.
  FailureTrace& node(int i) { return nodes_[static_cast<size_t>(i)]; }

  /// \brief Earliest failure strictly after `t` on any node; also reports
  /// which node fails (-1 if none ever). Ties go to the lowest node index.
  /// Amortised O(log n) per failure passed when `t` never decreases; a
  /// query before the previous one rebuilds the merged view from every
  /// node.
  double NextFailureAfter(double t, int* which_node = nullptr);

 private:
  /// (failure time, node) entries, ordered by time and then node index.
  using Entry = std::pair<double, int>;

  std::vector<FailureTrace> nodes_;
  /// Min-heap (std::greater) holding, for every node that fails after
  /// cursor_, its earliest failure strictly after cursor_. Nodes that
  /// never fail again are absent.
  std::vector<Entry> heap_;
  /// Time of the last query; NaN until the first one builds heap_.
  double cursor_ = std::numeric_limits<double>::quiet_NaN();
};

/// \brief The standard experiment setup: `count` independent trace sets.
/// When `stats` has bursts, each set is GenerateWithBursts of its seed:
/// bursts every stats.burst_mtbf_seconds on average, each killing
/// max(1, round(burst_fanout * num_nodes)) nodes within 1 s, over the
/// per-node process at stats.mtbf_seconds, so a simulation sees the
/// failures the cost model priced.
std::vector<ClusterTrace> GenerateTraceSet(const cost::ClusterStats& stats,
                                           int count, uint64_t base_seed);

/// \brief `count` independent burst trace sets (see GenerateWithBursts).
std::vector<ClusterTrace> GenerateBurstTraceSet(
    const cost::ClusterStats& stats, const BurstOptions& burst, int count,
    uint64_t base_seed);

}  // namespace xdbft::cluster
