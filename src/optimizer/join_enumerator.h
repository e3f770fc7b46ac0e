// Join-order enumeration: exhaustive enumeration of all connected bushy
// join trees without cross products (for the pruning experiment, §5.5) and
// a DPsub-based enumerator that keeps the top-k cheapest plans per subset
// (phase 1 of enumFTPlans, §3.2).
#pragma once

#include <vector>

#include "common/result.h"
#include "optimizer/join_graph.h"
#include "optimizer/physical_cost.h"
#include "plan/plan.h"

namespace xdbft::optimizer {

/// \brief A join tree node stored in a JoinTreeArena. Leaves reference a
/// relation; inner nodes reference two children.
struct JoinTreeNode {
  int relation = -1;  // >= 0 for leaves
  int left = -1;
  int right = -1;
  bool is_leaf() const { return relation >= 0; }
};

/// \brief Arena holding join-tree nodes; trees are identified by the index
/// of their root node.
class JoinTreeArena {
 public:
  int Leaf(int relation);
  int Join(int left, int right);

  const JoinTreeNode& node(int i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  size_t size() const { return nodes_.size(); }

  /// \brief Set of relations under the tree rooted at `root`.
  RelSet Relations(int root) const;

  /// \brief "(((R N) C) O)" style rendering.
  std::string ToString(int root, const JoinGraph& graph) const;

 private:
  std::vector<JoinTreeNode> nodes_;
};

/// \brief Failure-free cost of the tree rooted at `root`: sum of scan,
/// build, probe and output costs over all operators (the phase-1 metric).
double TreeCost(const JoinTreeArena& arena, int root, const JoinGraph& graph,
                const PhysicalCostParams& params);

/// \brief Enumerate every connected bushy join tree without cross products.
/// Left/right order matters (build vs probe side), so TPC-H Q5 yields the
/// paper's 1344 join orders. Returns the roots in `arena`.
Result<std::vector<int>> EnumerateAllJoinTrees(const JoinGraph& graph,
                                               JoinTreeArena* arena);

/// \brief DPsub keeping the `top_k` cheapest trees per relation subset;
/// returns the top-k roots for the full relation set, cheapest first.
Result<std::vector<int>> EnumerateTopKJoinTrees(
    const JoinGraph& graph, int top_k, const PhysicalCostParams& params,
    JoinTreeArena* arena);

/// \brief Options controlling plan emission.
struct PlanEmissionOptions {
  /// Append an aggregation sink consuming the final join (rows/width of
  /// the aggregate output).
  bool add_aggregate_sink = true;
  double aggregate_rows = 8.0;
  double aggregate_width = 112.0;
  std::string plan_name = "join-plan";
};

/// \brief Convert a join tree into an executable DAG plan: bound scans,
/// free hash joins (with tr/tm from `params`), optional aggregation sink.
Result<plan::Plan> EmitPlan(const JoinTreeArena& arena, int root,
                            const JoinGraph& graph,
                            const PhysicalCostParams& params,
                            const PlanEmissionOptions& options = {});

}  // namespace xdbft::optimizer
