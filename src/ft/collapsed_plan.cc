#include "ft/collapsed_plan.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace xdbft::ft {

using plan::OpId;
using plan::Plan;

Result<CollapsedPlan> CollapsedPlan::Create(
    const Plan& plan, const MaterializationConfig& config,
    double pipe_constant) {
  CollapsedPlan cp;
  XDBFT_RETURN_NOT_OK(cp.Rebuild(plan, config, pipe_constant));
  return cp;
}

Status CollapsedPlan::Rebuild(const Plan& plan,
                              const MaterializationConfig& config,
                              double pipe_constant) {
  XDBFT_RETURN_NOT_OK(plan.Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan));
  if (!(pipe_constant > 0.0) || pipe_constant > 1.0) {
    return Status::InvalidArgument("pipe_constant must be in (0, 1]");
  }

  // Per-operator scratch, indexed by OpId. The marks hold the id of the
  // collapsed op that set them, so no collapsed op has to clear them.
  struct Scratch {
    CollapsedId collapsed = -1;  // collapsed op anchored here, if any
    CollapsedId member_of = -1;  // o is in coll(member_of)
    CollapsedId input_of = -1;   // o's collapsed op is an input of it
    double longest = 0.0;        // max-tr internal path ending at o
    OpId pred = plan::kInvalidOpId;  // o's predecessor on that path
  };
  std::vector<Scratch> scratch(plan.num_nodes());
  std::vector<OpId> stack;

  num_ops_ = 0;
  // Anchors in ascending (= topological) order so that input collapsed ops
  // exist before their consumers.
  for (const auto& node : plan.nodes()) {
    if (!config.materialized(node.id)) continue;
    if (num_ops_ == ops_.size()) ops_.emplace_back();
    // Reuse a spare op's buffers; every field is rewritten below.
    CollapsedOp& c = ops_[num_ops_];
    c.id = static_cast<CollapsedId>(num_ops_++);
    c.anchor = node.id;
    c.members.clear();
    c.inputs.clear();
    c.dominant_members.clear();

    // Collect coll(c): the anchor plus all non-materialized ancestors
    // reachable without crossing a materialized operator.
    scratch[static_cast<size_t>(node.id)].member_of = c.id;
    stack.assign(1, node.id);
    while (!stack.empty()) {
      const OpId o = stack.back();
      stack.pop_back();
      c.members.push_back(o);
      for (OpId in : plan.node(o).inputs) {
        Scratch& s = scratch[static_cast<size_t>(in)];
        if (config.materialized(in)) {
          if (s.input_of != c.id) {
            s.input_of = c.id;
            c.inputs.push_back(s.collapsed);
          }
        } else if (s.member_of != c.id) {
          s.member_of = c.id;
          stack.push_back(in);
        }
      }
    }
    std::sort(c.members.begin(), c.members.end());
    std::sort(c.inputs.begin(), c.inputs.end());

    // Dominant internal path dom(c): the max-tr path over coll(c)'s
    // internal edges ending at the anchor (Eq. 1).
    for (OpId o : c.members) {  // ascending ids = topological
      double best_in = 0.0;
      OpId best_pred = plan::kInvalidOpId;
      for (OpId in : plan.node(o).inputs) {
        const Scratch& s = scratch[static_cast<size_t>(in)];
        if (s.member_of != c.id) continue;
        if (s.longest > best_in) {
          best_in = s.longest;
          best_pred = in;
        }
      }
      Scratch& s = scratch[static_cast<size_t>(o)];
      s.longest = plan.node(o).runtime_cost + best_in;
      s.pred = best_pred;
    }
    for (OpId o = node.id; o != plan::kInvalidOpId;
         o = scratch[static_cast<size_t>(o)].pred) {
      c.dominant_members.push_back(o);
    }
    std::reverse(c.dominant_members.begin(), c.dominant_members.end());

    const double factor =
        c.dominant_members.size() > 1 ? pipe_constant : 1.0;
    c.runtime_cost = scratch[static_cast<size_t>(node.id)].longest * factor;
    c.materialize_cost = plan.node(node.id).materialize_cost;
    c.lineage_volume = 0.0;
    for (OpId m : c.members) {
      if (m == node.id) continue;
      c.lineage_volume += plan.node(m).materialize_cost;
    }
    scratch[static_cast<size_t>(node.id)].collapsed = c.id;
  }

  // Consumer lists, flattened: counts, then prefix sums, then a fill that
  // advances each op's start to the next op's, shifted back at the end.
  consumer_begin_.assign(num_ops_ + 1, 0);
  for (const CollapsedOp& c : ops()) {
    for (CollapsedId in : c.inputs) {
      ++consumer_begin_[static_cast<size_t>(in) + 1];
    }
  }
  for (size_t i = 0; i < num_ops_; ++i) {
    consumer_begin_[i + 1] += consumer_begin_[i];
  }
  consumers_.resize(consumer_begin_[num_ops_]);
  for (const CollapsedOp& c : ops()) {
    for (CollapsedId in : c.inputs) {
      consumers_[consumer_begin_[static_cast<size_t>(in)]++] = c.id;
    }
  }
  for (size_t i = num_ops_; i > 0; --i) {
    consumer_begin_[i] = consumer_begin_[i - 1];
  }
  consumer_begin_[0] = 0;

  sources_.clear();
  sinks_.clear();
  for (const CollapsedOp& c : ops()) {
    if (c.inputs.empty()) sources_.push_back(c.id);
    if (Consumers(c.id).empty()) sinks_.push_back(c.id);
  }
  return Status::OK();
}

size_t CollapsedPlan::ForEachPath(
    const std::function<bool(const CollapsedPath&)>& visit) const {
  // Depth-first from each source: path[d] is the op at depth d and
  // next[d] how many of its consumers have been descended into.
  size_t visited = 0;
  CollapsedPath path;
  std::vector<size_t> next;
  path.reserve(num_ops_);
  next.reserve(num_ops_);
  for (CollapsedId s : sources_) {
    path.assign(1, s);
    next.assign(1, 0);
    while (!path.empty()) {
      const std::span<const CollapsedId> consumers = Consumers(path.back());
      if (consumers.empty()) {  // a sink ends a path
        ++visited;
        if (!visit(path)) return visited;
      } else if (next.back() < consumers.size()) {
        path.push_back(consumers[next.back()++]);
        next.push_back(0);
        continue;
      }
      path.pop_back();
      next.pop_back();
    }
  }
  return visited;
}

std::vector<CollapsedPath> CollapsedPlan::AllPaths() const {
  std::vector<CollapsedPath> out;
  ForEachPath([&](const CollapsedPath& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

size_t CollapsedPlan::CountPaths() const {
  std::vector<size_t> count(num_ops_, 0);
  for (const auto& c : ops()) {  // ascending id = topological
    if (c.inputs.empty()) {
      count[static_cast<size_t>(c.id)] = 1;
      continue;
    }
    size_t total = 0;
    for (CollapsedId in : c.inputs) {
      total += count[static_cast<size_t>(in)];
    }
    count[static_cast<size_t>(c.id)] = total;
  }
  size_t total = 0;
  for (CollapsedId sink : sinks_) {
    total += count[static_cast<size_t>(sink)];
  }
  return total;
}

double CollapsedPlan::MakespanNoFailure() const {
  std::vector<double> finish(num_ops_, 0.0);
  double makespan = 0.0;
  for (const auto& c : ops()) {  // ascending id = topological
    double ready = 0.0;
    for (CollapsedId in : c.inputs) {
      ready = std::max(ready, finish[static_cast<size_t>(in)]);
    }
    finish[static_cast<size_t>(c.id)] = ready + c.total_cost();
    makespan = std::max(makespan, finish[static_cast<size_t>(c.id)]);
  }
  return makespan;
}

std::string CollapsedPlan::Explain() const {
  std::ostringstream os;
  os << "CollapsedPlan (" << num_ops_ << " collapsed operators)\n";
  for (const auto& c : ops()) {
    std::vector<std::string> mems;
    mems.reserve(c.members.size());
    for (OpId m : c.members) mems.push_back(std::to_string(m));
    os << StrFormat("  c%-3d {%s} anchor=%d tr=%.3f tm=%.3f t=%.3f", c.id,
                    Join(mems, ",").c_str(), c.anchor, c.runtime_cost,
                    c.materialize_cost, c.total_cost());
    if (!c.inputs.empty()) {
      os << "  <- {";
      for (size_t i = 0; i < c.inputs.size(); ++i) {
        if (i) os << ",";
        os << "c" << c.inputs[i];
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace xdbft::ft
