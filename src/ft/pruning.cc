#include "ft/pruning.h"

#include <algorithm>
#include <mutex>

namespace xdbft::ft {

using plan::MatConstraint;
using plan::OpId;
using plan::Plan;

namespace {

// t({o}) for a singleton collapsed operator: no pipeline discount.
double SingletonCost(const plan::PlanNode& o) {
  return o.runtime_cost + o.materialize_cost;
}

// t({children..., p}) for the collapse of p with all its children: the
// dominant internal path is max_i tr(o_i) + tr(p), discounted by
// CONST_pipe, plus tm(p) (Fig. 5).
double CollapsedWithParentCost(const Plan& plan, const plan::PlanNode& p,
                               double pipe_constant) {
  double max_child_tr = 0.0;
  for (OpId in : p.inputs) {
    max_child_tr = std::max(max_child_tr, plan.node(in).runtime_cost);
  }
  return (max_child_tr + p.runtime_cost) * pipe_constant +
         p.materialize_cost;
}

// True iff `p` is the only consumer of `o`.
bool SoleConsumerIs(const Plan& plan, OpId o, OpId p) {
  const auto consumers = plan.Consumers(o);
  return consumers.size() == 1 && consumers[0] == p;
}

}  // namespace

int ApplyPruningRule1(Plan* plan, double pipe_constant) {
  int marked = 0;
  // Consider each parent p and the set of its children; the unary case is
  // the n-ary case with one child (§4.1 treats them separately only for
  // presentation).
  for (const auto& p : plan->nodes()) {
    if (p.inputs.empty()) continue;
    // Every child must have p as its sole consumer, otherwise collapsing a
    // child into p does not remove its other consumers' dependency on a
    // materialized copy.
    bool eligible = true;
    for (OpId in : p.inputs) {
      if (!SoleConsumerIs(*plan, in, p.id)) {
        eligible = false;
        break;
      }
    }
    if (!eligible) continue;

    const double collapsed = CollapsedWithParentCost(*plan, p, pipe_constant);
    // The rule requires t({o_1,...,o_k,p}) <= t({o_i}) for every free
    // child; only then is not materializing them guaranteed no worse.
    bool all_dominated = true;
    bool any_free = false;
    for (OpId in : p.inputs) {
      const auto& child = plan->node(in);
      if (!child.is_free()) continue;
      any_free = true;
      if (!(collapsed <= SingletonCost(child))) {
        all_dominated = false;
        break;
      }
    }
    if (!any_free || !all_dominated) continue;
    for (OpId in : p.inputs) {
      auto& child = plan->mutable_node(in);
      if (child.is_free()) {
        child.constraint = MatConstraint::kNeverMaterialize;
        ++marked;
      }
    }
  }
  return marked;
}

int ApplyPruningRule2(Plan* plan, const FtCostContext& context) {
  const FailureParams params = context.MakeFailureParams();
  const double pipe = context.model.pipe_constant;
  int marked = 0;
  for (const auto& p : plan->nodes()) {
    // Rule 2 applies only to children of *unary* parents (§4.2).
    if (p.inputs.size() != 1) continue;
    const OpId o_id = p.inputs[0];
    auto& o = plan->mutable_node(o_id);
    if (!o.is_free()) continue;
    if (!SoleConsumerIs(*plan, o_id, p.id)) continue;
    const double t_op =
        (o.runtime_cost + p.runtime_cost) * pipe + p.materialize_cost;
    // Effective (burst-adjusted) MTBF: under correlated failures the
    // collapsed pair succeeds less often, so rule 2 marks fewer operators.
    // Without bursts this is mtbf_cost exactly.
    const double gamma = SuccessProbability(t_op, params.effective_mtbf_cost());
    if (gamma >= params.success_target) {
      o.constraint = MatConstraint::kNeverMaterialize;
      ++marked;
    }
  }
  return marked;
}

void SortPathCosts(std::vector<PathOpCost>* costs) {
  std::sort(costs->begin(), costs->end(),
            [](const PathOpCost& a, const PathOpCost& b) {
              if (a.t != b.t) return a.t > b.t;
              return a.extra > b.extra;
            });
}

bool PairwiseDominates(const std::vector<PathOpCost>& sorted_path,
                       const DominantPathEntry& entry, bool strict) {
  // Shorter memos are implicitly padded with zero-cost operators
  // (paper §4.3).
  bool any_strict = false;
  for (size_t i = 0; i < sorted_path.size(); ++i) {
    static constexpr PathOpCost kZero{};
    const PathOpCost& memo_cost =
        i < entry.sorted_costs.size() ? entry.sorted_costs[i] : kZero;
    if (sorted_path[i].t < memo_cost.t) return false;
    if (sorted_path[i].extra < memo_cost.extra) return false;
    // Only a strictly greater t certifies a strictly greater TPt: U is
    // strictly increasing in t but merely non-decreasing in extra (the
    // refetch charge is multiplied by a(c), which can be 0).
    if (sorted_path[i].t > memo_cost.t) any_strict = true;
  }
  return !strict || any_strict;
}

void ConcurrentDominantPathMemo::Record(std::vector<PathOpCost> costs,
                                        double total) {
  SortPathCosts(&costs);
  const size_t count = costs.size();
  Shard& shard = shards_[count % kNumShards];
  std::unique_lock lock(shard.mu);
  auto it = shard.by_count.find(count);
  if (it == shard.by_count.end()) {
    shard.by_count.emplace(count,
                           DominantPathEntry{std::move(costs), total});
    num_entries_.fetch_add(1, std::memory_order_release);
  } else if (total < it->second.total) {
    it->second = DominantPathEntry{std::move(costs), total};
  }
}

bool ConcurrentDominantPathMemo::DominatesSorted(
    const std::vector<PathOpCost>& sorted_costs) const {
  if (empty()) return false;
  const size_t len = sorted_costs.size();
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [count, entry] : shard.by_count) {
      if (count > len) break;  // map is ordered by count
      if (PairwiseDominates(sorted_costs, entry, /*strict=*/true)) {
        return true;
      }
    }
  }
  return false;
}

void ConcurrentDominantPathMemo::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.by_count.clear();
  }
  num_entries_.store(0, std::memory_order_release);
}

}  // namespace xdbft::ft
