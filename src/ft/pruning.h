// Search-space pruning for materialization-configuration enumeration
// (paper §4). Rules 1 and 2 are pre-passes over a plan that mark operators
// non-materializable (turning f(o)=1 into a bound m(o)=0) and thereby halve
// the configuration space per marked operator. Rule 3 (long execution paths
// with memoized dominant paths, Eq. 9) runs inside the enumerator; its
// helper, ConcurrentDominantPathMemo, lives here.
//
// Exactness: rule 3 only skips paths whose TPt provably cannot beat the
// memoized best, so it preserves the optimum exactly. Rules 1 and 2 rest on
// the paper's *pairwise* collapse arguments ({o,p} vs {o},{p}); in the full
// configuration space, where a banned operator may end up merged into a much
// larger collapsed operator, they are near-optimal heuristics rather than
// strict guarantees (see FullPruningNearOptimal in enumerator_test.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <vector>

#include "ft/ft_cost.h"
#include "plan/plan.h"

namespace xdbft::ft {

/// \brief Which pruning rules the enumerator applies.
struct PruningOptions {
  /// Rule 1 (§4.1): mark o non-materializable when collapsing it into its
  /// parent is guaranteed cheaper than materializing it.
  bool rule1 = true;
  /// Rule 2 (§4.2): mark o non-materializable when the collapsed {o, p}
  /// already meets the desired success probability S.
  bool rule2 = true;
  /// Rule 3 (§4.3): stop path enumeration of an FT plan early once a path
  /// at least as expensive as the best memoized dominant path is found.
  bool rule3 = true;
  /// Extension of rule 3: memoize the best dominant path per
  /// collapsed-operator count and prune via the pairwise sorted comparison
  /// of Eq. 9.
  bool memoize_dominant_paths = true;
};

/// \brief Rule 1 — high materialization costs (§4.1). Marks free operators
/// whose collapse into their (sole-consumer) parent is guaranteed not to
/// increase any path's runtime under failures, i.e. when
/// t({children..., p}) <= t({o_i}) for every free child o_i. Handles both
/// the unary- and the n-ary-parent case. Returns the number of operators
/// marked (constraint set to kNeverMaterialize).
int ApplyPruningRule1(plan::Plan* plan, double pipe_constant);

/// \brief Rule 2 — high probability of success (§4.2). For a free operator
/// o whose sole consumer p is unary, marks o non-materializable when
/// gamma({o, p}) >= S under the context's effective MTBF. Returns the
/// number of operators marked.
int ApplyPruningRule2(plan::Plan* plan, const FtCostContext& context);

/// \brief Cost of one collapsed operator along a path, in the dimensions
/// the per-operator runtime U(t, extra) = t + a(t)(w(t) + MTTR + extra) is
/// monotone in: the durable runtime t and the per-attempt refetch charge
/// extra. Without bursts extra == 0 throughout, which makes the pairwise
/// comparison degenerate exactly to the scalar Eq. 9.
struct PathOpCost {
  double t = 0.0;
  double extra = 0.0;
};

/// \brief One memoized dominant path: its (t, extra) multiset sorted
/// descending lexicographically and its total TPt.
struct DominantPathEntry {
  std::vector<PathOpCost> sorted_costs;  // descending lex by (t, extra)
  double total = 0.0;
};

/// \brief Eq. 9 pairwise comparison, extended to refetch: true iff
/// `sorted_path` (descending lex) is >= `entry.sorted_costs` position by
/// position in *both* dimensions (t and extra), padding the shorter memo
/// with zero-cost operators. U is increasing in both arguments, so a
/// componentwise-dominating matching certifies TPt(path) >= entry.total;
/// comparing at identical sort ranks is a sound (conservative) way to find
/// one. With `strict`, additionally requires a strictly greater *t* at some
/// position — U is strictly increasing in t but only weakly in extra (an
/// operator with a(c) == 0 never pays the refetch), so only a t-gap
/// certifies TPt(path) > entry.total. Exact cost ties are therefore *not*
/// pruned and survive to deterministic tie-breaking (see FtPlanEnumerator).
bool PairwiseDominates(const std::vector<PathOpCost>& sorted_path,
                       const DominantPathEntry& entry, bool strict);

/// \brief Canonical memo order: descending lexicographic by (t, extra).
void SortPathCosts(std::vector<PathOpCost>* costs);

/// \brief Memo store for rule 3's dominant-path comparison (Eq. 9), used
/// by the parallel enumerator: for each collapsed-operator count, the
/// (t, extra) multiset (sorted descending) of the cheapest dominant path
/// seen so far. Thread-safe: entries are sharded by collapsed-operator
/// count (mutex striping: one shared_mutex per shard, so concurrent probes
/// of paths with different lengths never contend and same-length probes
/// share a read lock).
/// Dominates() is always strict (see PairwiseDominates): a pruned
/// configuration provably costs *more* than a memoized total, never the
/// same, which keeps the parallel search's winner identical to the
/// sequential one under exact cost ties.
class ConcurrentDominantPathMemo {
 public:
  /// \brief Record the dominant path of a newly accepted best plan.
  /// `costs` are the (t, extra) values along the path; `total` its TPt.
  void Record(std::vector<PathOpCost> costs, double total);

  /// \brief Strict Eq. 9 dominance over any memoized path with at most as
  /// many collapsed operators (shorter memos are padded with zero-cost
  /// operators, as the paper allows).
  bool Dominates(std::vector<PathOpCost> path_costs) const {
    SortPathCosts(&path_costs);
    return DominatesSorted(path_costs);
  }

  /// \brief Dominates() for costs already in SortPathCosts order (lets a
  /// caller sort into a reused buffer).
  bool DominatesSorted(const std::vector<PathOpCost>& sorted_costs) const;

  /// \brief Cheap pre-check (relaxed; may briefly lag Record calls).
  bool empty() const {
    return num_entries_.load(std::memory_order_acquire) == 0;
  }
  void Clear();

 private:
  static constexpr size_t kNumShards = 8;
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<size_t, DominantPathEntry> by_count;
  };
  Shard shards_[kNumShards];
  std::atomic<size_t> num_entries_{0};
};

}  // namespace xdbft::ft
