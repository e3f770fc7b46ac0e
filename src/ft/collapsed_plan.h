// CollapsedPlan: P^c construction from a fault-tolerant plan [P, M_P]
// (paper §3.3). A collapsed operator represents the unit of re-execution: a
// maximal sub-plan of non-materialized operators pipelined into one
// materializing anchor. Once a collapsed operator has materialized its
// output it never re-executes.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "ft/mat_config.h"
#include "plan/plan.h"

namespace xdbft::ft {

/// \brief Index of a collapsed operator within a CollapsedPlan.
using CollapsedId = int32_t;

/// \brief One collapsed operator c of P^c.
struct CollapsedOp {
  CollapsedId id = -1;
  /// coll(c): ids of the original operators collapsed into this one. A
  /// non-materialized operator feeding several materializing consumers is
  /// duplicated into each (its work is re-done per consumer on recovery).
  std::vector<plan::OpId> members;
  /// The materializing operator anchoring this collapsed op.
  plan::OpId anchor = plan::kInvalidOpId;
  /// dom(c): the member ids on the longest (by tr) internal execution path
  /// ending at the anchor, in execution order.
  std::vector<plan::OpId> dominant_members;
  /// tr(c) per Eq. 1: sum of tr over dom(c), discounted by CONST_pipe when
  /// the dominant path pipelines more than one operator.
  double runtime_cost = 0.0;
  /// tm(c): materialization cost of the anchor.
  double materialize_cost = 0.0;
  /// Sum of tm over coll(c) \ {anchor}: the volume of intermediate results
  /// flowing *inside* this collapsed op. Under write-ahead lineage this is
  /// the volume whose lineage must be logged before results flow on.
  double lineage_volume = 0.0;
  /// Collapsed operators whose (materialized) output this one reads.
  std::vector<CollapsedId> inputs;

  /// \brief t(c) = tr(c) + tm(c) (paper §3.3).
  double total_cost() const { return runtime_cost + materialize_cost; }
};

/// \brief An execution path through P^c: source -> ... -> sink (§3.4).
using CollapsedPath = std::vector<CollapsedId>;

/// \brief The collapsed plan P^c.
class CollapsedPlan {
 public:
  /// \brief Build P^c from [plan, config]. `pipe_constant` is CONST_pipe of
  /// Eq. 1. The config must be valid for the plan.
  static Result<CollapsedPlan> Create(const plan::Plan& plan,
                                      const MaterializationConfig& config,
                                      double pipe_constant = 1.0);

  /// \brief Create in place: make this P^c of [plan, config], reusing the
  /// buffers of what it held before, so collapsing configuration after
  /// configuration of one plan stops allocating for the collapsed
  /// operators once the buffers have grown. Same checks and result as
  /// Create; on error the plan is left unchanged.
  Status Rebuild(const plan::Plan& plan, const MaterializationConfig& config,
                 double pipe_constant = 1.0);

  size_t num_ops() const { return num_ops_; }
  const CollapsedOp& op(CollapsedId id) const {
    return ops_[static_cast<size_t>(id)];
  }
  std::span<const CollapsedOp> ops() const { return {ops_.data(), num_ops_}; }

  /// \brief Collapsed ops with no inputs / no consumers.
  const std::vector<CollapsedId>& sources() const { return sources_; }
  const std::vector<CollapsedId>& sinks() const { return sinks_; }

  /// \brief Consumers of a collapsed op, ascending by id.
  std::span<const CollapsedId> Consumers(CollapsedId id) const {
    const size_t i = static_cast<size_t>(id);
    return {consumers_.data() + consumer_begin_[i],
            consumers_.data() + consumer_begin_[i + 1]};
  }

  /// \brief Enumerate every source->sink execution path. The visitor
  /// returns false to stop the enumeration early (pruning rule 3).
  /// Returns the number of paths visited.
  size_t ForEachPath(
      const std::function<bool(const CollapsedPath&)>& visit) const;

  /// \brief All execution paths (convenience; may be exponential).
  std::vector<CollapsedPath> AllPaths() const;

  /// \brief Number of source->sink paths, computed by DP without
  /// materializing them (used by rule-3 accounting).
  size_t CountPaths() const;

  /// \brief Critical-path makespan of P^c without failures, respecting
  /// inter-operator parallelism (used as simulation baseline).
  double MakespanNoFailure() const;

  std::string Explain() const;

 private:
  /// P^c is ops_[0, num_ops_); the rest are spare buffers kept from an
  /// earlier, larger collapse for Rebuild to reuse.
  std::vector<CollapsedOp> ops_;
  size_t num_ops_ = 0;
  std::vector<CollapsedId> sources_;
  std::vector<CollapsedId> sinks_;
  /// Consumers of op i: consumers_[consumer_begin_[i], consumer_begin_[i+1]).
  std::vector<size_t> consumer_begin_;
  std::vector<CollapsedId> consumers_;
};

}  // namespace xdbft::ft
