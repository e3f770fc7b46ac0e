#include "optimizer/join_enumerator.h"

#include <algorithm>
#include <bit>
#include <map>

namespace xdbft::optimizer {

int JoinTreeArena::Leaf(int relation) {
  nodes_.push_back(JoinTreeNode{relation, -1, -1});
  return static_cast<int>(nodes_.size()) - 1;
}

int JoinTreeArena::Join(int left, int right) {
  nodes_.push_back(JoinTreeNode{-1, left, right});
  return static_cast<int>(nodes_.size()) - 1;
}

RelSet JoinTreeArena::Relations(int root) const {
  const JoinTreeNode& n = node(root);
  if (n.is_leaf()) return RelSet{1} << n.relation;
  return Relations(n.left) | Relations(n.right);
}

std::string JoinTreeArena::ToString(int root, const JoinGraph& graph) const {
  const JoinTreeNode& n = node(root);
  if (n.is_leaf()) return graph.relation(n.relation).name;
  return "(" + ToString(n.left, graph) + " " + ToString(n.right, graph) +
         ")";
}

double TreeCost(const JoinTreeArena& arena, int root, const JoinGraph& graph,
                const PhysicalCostParams& params) {
  const JoinTreeNode& n = arena.node(root);
  if (n.is_leaf()) return graph.relation(n.relation).scan_cost;
  const double l_cost = TreeCost(arena, n.left, graph, params);
  const double r_cost = TreeCost(arena, n.right, graph, params);
  const RelSet ls = arena.Relations(n.left);
  const RelSet rs = arena.Relations(n.right);
  const double l_rows = graph.Cardinality(ls);
  const double r_rows = graph.Cardinality(rs);
  const double out_rows = graph.Cardinality(ls | rs);
  return l_cost + r_cost + params.JoinCost(l_rows, r_rows, out_rows);
}

Result<std::vector<int>> EnumerateAllJoinTrees(const JoinGraph& graph,
                                               JoinTreeArena* arena) {
  XDBFT_RETURN_NOT_OK(graph.Validate());
  if (arena == nullptr) return Status::InvalidArgument("arena is null");
  const int n = graph.num_relations();
  const RelSet all = graph.AllRels();

  // trees[set] = roots of all join trees covering exactly `set`.
  std::map<RelSet, std::vector<int>> trees;
  for (int i = 0; i < n; ++i) {
    trees[RelSet{1} << i] = {arena->Leaf(i)};
  }

  // Enumerate subsets in increasing popcount via increasing numeric order
  // (every proper subset of S is numerically smaller than S).
  for (RelSet set = 1; set <= all; ++set) {
    if (std::popcount(set) < 2 || !graph.Connected(set)) continue;
    auto& out = trees[set];
    // Every ordered split (S1, S2): S1 is a non-empty proper subset; the
    // complement is S2. Ordered pairs are enumerated naturally since both
    // (S1, S2) and (S2, S1) occur as S1 ranges over proper subsets.
    for (RelSet s1 = (set - 1) & set; s1 != 0; s1 = (s1 - 1) & set) {
      const RelSet s2 = set & ~s1;
      if (s2 == 0) continue;
      if (!graph.Connected(s1) || !graph.Connected(s2)) continue;
      if (!graph.HasCrossEdge(s1, s2)) continue;  // no cross products
      const auto it1 = trees.find(s1);
      const auto it2 = trees.find(s2);
      if (it1 == trees.end() || it2 == trees.end()) continue;
      for (int t1 : it1->second) {
        for (int t2 : it2->second) {
          out.push_back(arena->Join(t1, t2));
        }
      }
    }
  }
  auto it = trees.find(all);
  if (it == trees.end() || it->second.empty()) {
    return Status::Internal("no join tree covers all relations");
  }
  return it->second;
}

Result<std::vector<int>> EnumerateTopKJoinTrees(
    const JoinGraph& graph, int top_k, const PhysicalCostParams& params,
    JoinTreeArena* arena) {
  XDBFT_RETURN_NOT_OK(graph.Validate());
  if (arena == nullptr) return Status::InvalidArgument("arena is null");
  if (top_k <= 0) return Status::InvalidArgument("top_k must be positive");
  const int n = graph.num_relations();
  const RelSet all = graph.AllRels();

  struct Entry {
    int root;
    double cost;
  };
  std::map<RelSet, std::vector<Entry>> best;  // sorted by cost, size<=top_k
  auto insert = [&](RelSet set, int root, double cost) {
    auto& v = best[set];
    const auto pos = std::lower_bound(
        v.begin(), v.end(), cost,
        [](const Entry& e, double c) { return e.cost < c; });
    if (v.size() >= static_cast<size_t>(top_k) && pos == v.end()) return;
    v.insert(pos, Entry{root, cost});
    if (v.size() > static_cast<size_t>(top_k)) v.pop_back();
  };

  for (int i = 0; i < n; ++i) {
    const RelSet s = RelSet{1} << i;
    insert(s, arena->Leaf(i), graph.relation(i).scan_cost);
  }

  for (RelSet set = 1; set <= all; ++set) {
    if (std::popcount(set) < 2 || !graph.Connected(set)) continue;
    const double out_rows = graph.Cardinality(set);
    for (RelSet s1 = (set - 1) & set; s1 != 0; s1 = (s1 - 1) & set) {
      const RelSet s2 = set & ~s1;
      // Enumerate each unordered split once; emit both orders below.
      if (s1 < s2) continue;
      if (s2 == 0 || !graph.Connected(s1) || !graph.Connected(s2)) continue;
      if (!graph.HasCrossEdge(s1, s2)) continue;
      const auto it1 = best.find(s1);
      const auto it2 = best.find(s2);
      if (it1 == best.end() || it2 == best.end()) continue;
      const double l_rows = graph.Cardinality(s1);
      const double r_rows = graph.Cardinality(s2);
      const double op_cost = params.JoinCost(l_rows, r_rows, out_rows);
      for (const Entry& e1 : it1->second) {
        for (const Entry& e2 : it2->second) {
          // One tree per unordered split: the build/probe mirror has
          // identical cost (side selection is by cardinality), so
          // emitting both would only crowd the top-k with duplicates.
          const double cost = e1.cost + e2.cost + op_cost;
          insert(set, arena->Join(e1.root, e2.root), cost);
        }
      }
    }
  }
  const auto it = best.find(all);
  if (it == best.end() || it->second.empty()) {
    return Status::Internal("no join tree covers all relations");
  }
  std::vector<int> roots;
  roots.reserve(it->second.size());
  for (const Entry& e : it->second) roots.push_back(e.root);
  return roots;
}

namespace {

// Recursively emits the tree into the plan; returns the operator id.
plan::OpId EmitNode(const JoinTreeArena& arena, int root,
                    const JoinGraph& graph, const PhysicalCostParams& params,
                    plan::Plan* plan) {
  const JoinTreeNode& n = arena.node(root);
  if (n.is_leaf()) {
    const Relation& rel = graph.relation(n.relation);
    plan::PlanNode node;
    node.type = plan::OpType::kTableScan;
    node.label = "Scan(" + rel.name + ")";
    node.runtime_cost = rel.scan_cost;
    node.materialize_cost = params.MatCost(rel.rows, rel.scan_width);
    node.output_rows = rel.rows;
    node.row_width_bytes = rel.scan_width;
    node.constraint = plan::MatConstraint::kNeverMaterialize;
    return plan->AddNode(std::move(node));
  }
  const plan::OpId l = EmitNode(arena, n.left, graph, params, plan);
  const plan::OpId r = EmitNode(arena, n.right, graph, params, plan);
  const RelSet ls = arena.Relations(n.left);
  const RelSet rs = arena.Relations(n.right);
  const double l_rows = graph.Cardinality(ls);
  const double r_rows = graph.Cardinality(rs);
  const double out_rows = graph.Cardinality(ls | rs);
  const double out_width = graph.Width(ls | rs);
  plan::PlanNode node;
  node.type = plan::OpType::kHashJoin;
  node.label = "Join" + arena.ToString(root, graph);
  node.runtime_cost = params.JoinCost(l_rows, r_rows, out_rows);
  node.materialize_cost = params.MatCost(out_rows, out_width);
  node.output_rows = out_rows;
  node.row_width_bytes = out_width;
  node.inputs = {l, r};
  return plan->AddNode(std::move(node));
}

}  // namespace

Result<plan::Plan> EmitPlan(const JoinTreeArena& arena, int root,
                            const JoinGraph& graph,
                            const PhysicalCostParams& params,
                            const PlanEmissionOptions& options) {
  XDBFT_RETURN_NOT_OK(graph.Validate());
  plan::Plan plan(options.plan_name);
  const plan::OpId top = EmitNode(arena, root, graph, params, &plan);
  if (options.add_aggregate_sink) {
    const double in_rows = plan.node(top).output_rows;
    plan::PlanNode agg;
    agg.type = plan::OpType::kHashAggregate;
    agg.label = "Agg";
    agg.runtime_cost = params.AggregateCost(in_rows);
    agg.materialize_cost =
        params.MatCost(options.aggregate_rows, options.aggregate_width);
    agg.output_rows = options.aggregate_rows;
    agg.row_width_bytes = options.aggregate_width;
    agg.inputs = {top};
    plan.AddNode(std::move(agg));
  }
  XDBFT_RETURN_NOT_OK(plan.Validate());
  return plan;
}

}  // namespace xdbft::optimizer
