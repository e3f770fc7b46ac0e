#include "ft/checkpointing.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xdbft::ft {

Status CheckpointParams::Validate() const {
  if (checkpoint_cost < 0.0 || !std::isfinite(checkpoint_cost)) {
    return Status::InvalidArgument("checkpoint_cost must be non-negative");
  }
  if (interval < 0.0 || !std::isfinite(interval)) {
    return Status::InvalidArgument("interval must be non-negative");
  }
  return Status::OK();
}

double OperatorTotalRuntimeWithCheckpoints(double t,
                                           const CheckpointParams& ckpt,
                                           const FailureParams& params) {
  if (t <= 0.0) return 0.0;
  const int k = NumCheckpointSegments(t, ckpt.interval);
  if (k == 1) return OperatorTotalRuntime(t, params);
  // Segments split the work evenly; every segment but the last also
  // writes a state checkpoint.
  const double work = t / static_cast<double>(k);
  const double with_ckpt = work + ckpt.checkpoint_cost;
  return static_cast<double>(k - 1) *
             OperatorTotalRuntime(with_ckpt, params) +
         OperatorTotalRuntime(work, params);
}

double OptimalCheckpointInterval(double t, double checkpoint_cost,
                                 const FailureParams& params) {
  if (t <= 0.0) return t;
  CheckpointParams ckpt;
  ckpt.checkpoint_cost = checkpoint_cost;
  double best_cost = OperatorTotalRuntime(t, params);
  double best_interval = t;
  // Discrete search over segment counts; runtimes are unimodal in k, but
  // the search space is tiny so scan with an early-out margin instead of
  // relying on unimodality.
  int rising = 0;
  for (int k = 2; k <= 10000; ++k) {
    ckpt.interval = t / static_cast<double>(k);
    const double cost =
        OperatorTotalRuntimeWithCheckpoints(t, ckpt, params);
    if (cost < best_cost) {
      best_cost = cost;
      best_interval = ckpt.interval;
      rising = 0;
    } else if (++rising > 32) {
      break;
    }
  }
  return best_interval;
}

double YoungDalyInterval(double checkpoint_cost, double mtbf_cost) {
  return std::sqrt(2.0 * std::max(checkpoint_cost, 0.0) * mtbf_cost);
}

}  // namespace xdbft::ft
