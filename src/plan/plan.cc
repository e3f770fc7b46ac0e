#include "plan/plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace xdbft::plan {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kTableScan:
      return "TableScan";
    case OpType::kFilter:
      return "Filter";
    case OpType::kProject:
      return "Project";
    case OpType::kHashJoin:
      return "HashJoin";
    case OpType::kHashAggregate:
      return "HashAggregate";
    case OpType::kSort:
      return "Sort";
    case OpType::kLimit:
      return "Limit";
    case OpType::kRepartition:
      return "Repartition";
    case OpType::kMapUdf:
      return "MapUDF";
    case OpType::kReduceUdf:
      return "ReduceUDF";
    case OpType::kUnion:
      return "Union";
    case OpType::kSink:
      return "Sink";
  }
  return "?";
}

OpId Plan::AddNode(PlanNode node) {
  node.id = static_cast<OpId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

std::vector<OpId> Plan::Sources() const {
  std::vector<OpId> out;
  for (const auto& n : nodes_) {
    if (n.inputs.empty()) out.push_back(n.id);
  }
  return out;
}

std::vector<OpId> Plan::Sinks() const {
  std::vector<bool> consumed(nodes_.size(), false);
  for (const auto& n : nodes_) {
    for (OpId in : n.inputs) consumed[static_cast<size_t>(in)] = true;
  }
  std::vector<OpId> out;
  for (const auto& n : nodes_) {
    if (!consumed[static_cast<size_t>(n.id)]) out.push_back(n.id);
  }
  return out;
}

std::vector<OpId> Plan::Consumers(OpId id) const {
  std::vector<OpId> out;
  for (const auto& n : nodes_) {
    for (OpId in : n.inputs) {
      if (in == id) {
        out.push_back(n.id);
        break;
      }
    }
  }
  return out;
}

std::vector<OpId> Plan::TopologicalOrder() const {
  // AddNode requires inputs to precede consumers, so ascending ids are
  // already topological.
  std::vector<OpId> order(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) order[i] = static_cast<OpId>(i);
  return order;
}

std::vector<OpId> Plan::FreeOperators() const {
  std::vector<OpId> out;
  for (const auto& n : nodes_) {
    if (n.is_free()) out.push_back(n.id);
  }
  return out;
}

Status Plan::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("plan is empty");
  // listed_by[o] = the last node that listed o as an input.
  std::vector<OpId> listed_by(nodes_.size(), kInvalidOpId);
  for (const auto& n : nodes_) {
    for (OpId in : n.inputs) {
      if (in < 0 || in >= n.id) {
        return Status::InvalidArgument(
            StrFormat("node %d has invalid input %d (must reference an "
                      "earlier node)",
                      n.id, in));
      }
      OpId& lister = listed_by[static_cast<size_t>(in)];
      if (lister == n.id) {
        return Status::InvalidArgument(
            StrFormat("node %d lists input %d twice", n.id, in));
      }
      lister = n.id;
    }
    if (n.label.empty()) {
      return Status::InvalidArgument(StrFormat("node %d has no label", n.id));
    }
    if (!std::isfinite(n.runtime_cost) || n.runtime_cost < 0.0) {
      return Status::InvalidArgument(
          StrFormat("node %d (%s) has invalid runtime cost", n.id,
                    n.label.c_str()));
    }
    if (!std::isfinite(n.materialize_cost) || n.materialize_cost < 0.0) {
      return Status::InvalidArgument(
          StrFormat("node %d (%s) has invalid materialization cost", n.id,
                    n.label.c_str()));
    }
  }
  // A sink is a node no node lists as an input.
  if (std::find(listed_by.begin(), listed_by.end(), kInvalidOpId) ==
      listed_by.end()) {
    return Status::InvalidArgument("plan has no sink");
  }
  return Status::OK();
}

double Plan::TotalRuntimeCost() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n.runtime_cost;
  return total;
}

double Plan::TotalMaterializeCost() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n.materialize_cost;
  return total;
}

std::string Plan::Explain() const {
  std::ostringstream os;
  os << "Plan " << name_ << " (" << nodes_.size() << " operators)\n";
  for (const auto& n : nodes_) {
    os << StrFormat("  [%2d] %-14s %-28s tr=%-9.3f tm=%-9.3f", n.id,
                    OpTypeName(n.type), n.label.c_str(), n.runtime_cost,
                    n.materialize_cost);
    switch (n.constraint) {
      case MatConstraint::kFree:
        os << " free";
        break;
      case MatConstraint::kNeverMaterialize:
        os << " bound(m=0)";
        break;
      case MatConstraint::kAlwaysMaterialize:
        os << " bound(m=1)";
        break;
    }
    if (!n.inputs.empty()) {
      os << "  <- {";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        if (i) os << ",";
        os << n.inputs[i];
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

OpId PlanBuilder::Scan(const std::string& table, double rows,
                       double width_bytes, double runtime_cost) {
  PlanNode n;
  n.type = OpType::kTableScan;
  n.label = "Scan(" + table + ")";
  n.runtime_cost = runtime_cost;
  n.materialize_cost = 0.0;
  n.output_rows = rows;
  n.row_width_bytes = width_bytes;
  return plan_.AddNode(std::move(n));
}

OpId PlanBuilder::Unary(OpType type, const std::string& label, OpId input,
                        double runtime_cost, double materialize_cost,
                        double output_rows, double width_bytes) {
  return Nary(type, label, {input}, runtime_cost, materialize_cost,
              output_rows, width_bytes);
}

OpId PlanBuilder::Binary(OpType type, const std::string& label, OpId left,
                         OpId right, double runtime_cost,
                         double materialize_cost, double output_rows,
                         double width_bytes) {
  return Nary(type, label, {left, right}, runtime_cost, materialize_cost,
              output_rows, width_bytes);
}

OpId PlanBuilder::Nary(OpType type, const std::string& label,
                       std::vector<OpId> inputs, double runtime_cost,
                       double materialize_cost, double output_rows,
                       double width_bytes) {
  PlanNode n;
  n.type = type;
  n.label = label;
  n.inputs = std::move(inputs);
  n.runtime_cost = runtime_cost;
  n.materialize_cost = materialize_cost;
  n.output_rows = output_rows;
  n.row_width_bytes = width_bytes;
  return plan_.AddNode(std::move(n));
}

PlanBuilder& PlanBuilder::Constrain(OpId id, MatConstraint c) {
  plan_.mutable_node(id).constraint = c;
  return *this;
}

Plan PlanBuilder::Build() && { return std::move(plan_); }

}  // namespace xdbft::plan
