#include "cost/cost_params.h"

#include <cmath>

#include "common/string_util.h"

namespace xdbft::cost {

Status ClusterStats::Validate() const {
  if (num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  if (!(mtbf_seconds > 0.0) || !std::isfinite(mtbf_seconds)) {
    return Status::InvalidArgument("mtbf_seconds must be positive and finite");
  }
  if (mttr_seconds < 0.0 || !std::isfinite(mttr_seconds)) {
    return Status::InvalidArgument("mttr_seconds must be non-negative");
  }
  if (burst_mtbf_seconds < 0.0 || !std::isfinite(burst_mtbf_seconds)) {
    return Status::InvalidArgument(
        "burst_mtbf_seconds must be non-negative and finite (0 = off)");
  }
  if (!(burst_fanout > 0.0) || burst_fanout > 1.0) {
    return Status::InvalidArgument("burst_fanout must be in (0, 1]");
  }
  return Status::OK();
}

std::string ClusterStats::ToString() const {
  std::string out = StrFormat("Cluster(n=%d, MTBF=%s, MTTR=%s", num_nodes,
                              HumanDuration(mtbf_seconds).c_str(),
                              HumanDuration(mttr_seconds).c_str());
  if (has_bursts()) {
    out += StrFormat(", burstMTBF=%s, fanout=%.2f",
                     HumanDuration(burst_mtbf_seconds).c_str(), burst_fanout);
  }
  out += ")";
  return out;
}

Status CostModelParams::Validate() const {
  if (!(pipe_constant > 0.0) || pipe_constant > 1.0) {
    return Status::InvalidArgument("pipe_constant must be in (0, 1]");
  }
  if (!(cost_constant > 0.0) || !std::isfinite(cost_constant)) {
    return Status::InvalidArgument("cost_constant must be positive and finite");
  }
  if (!(success_target > 0.0) || !(success_target < 1.0)) {
    return Status::InvalidArgument("success_target must be in (0, 1)");
  }
  if (wal_write_cost < 0.0 || !std::isfinite(wal_write_cost)) {
    return Status::InvalidArgument(
        "wal_write_cost must be non-negative and finite");
  }
  if (!(wal_replay_factor >= 0.0 && wal_replay_factor <= 1.0)) {
    return Status::InvalidArgument("wal_replay_factor must be in [0, 1]");
  }
  return Status::OK();
}

ClusterStats MakeCluster(int num_nodes, double mtbf_seconds,
                         double mttr_seconds) {
  ClusterStats s;
  s.num_nodes = num_nodes;
  s.mtbf_seconds = mtbf_seconds;
  s.mttr_seconds = mttr_seconds;
  return s;
}

}  // namespace xdbft::cost
