// Intra-operator checkpointing — the paper's first "future avenue of work"
// (§7): "integrate other fault-tolerance strategies (e.g., check-pointing
// of the operator state to also support mid-operator failures) ... helpful
// especially for long running operators which otherwise are likely to fail
// often."
//
// Model: an operator (collapsed sub-plan) of duration t whose state is
// checkpointed every delta seconds of progress executes as
// k = ceil(t/delta) segments of duration t/k + C each (C = cost of writing
// one state checkpoint). A mid-operator failure only repeats the current
// segment, so each segment is an independent retry unit costed by the
// paper's Eq. 8. The classic Young/Daly first-order optimum
// delta* = sqrt(2 * C * MTBF) falls out of the same analysis; we expose an
// exact minimizer over the percentile model.
#pragma once

#include <cmath>
#include <limits>

#include "common/result.h"
#include "ft/failure_math.h"

namespace xdbft::ft {

/// \brief Intra-operator checkpointing settings.
struct CheckpointParams {
  /// Seconds to write one operator-state checkpoint (0 = free).
  double checkpoint_cost = 1.0;
  /// Checkpoint every `interval` seconds of operator progress; 0 disables
  /// checkpointing (the operator is one retry unit, Eq. 8).
  double interval = 0.0;

  Status Validate() const;
};

/// \brief Number of segments an operator of duration `t` splits into under
/// `interval` (>= 1; 1 when checkpointing is disabled or t <= interval;
/// saturates at INT_MAX).
inline int NumCheckpointSegments(double t, double interval) {
  if (interval <= 0.0 || t <= interval) return 1;
  // Saturate: casting a ceil() beyond INT_MAX (or NaN) to int is
  // undefined.
  const double k = std::ceil(t / interval);
  constexpr int kMax = std::numeric_limits<int>::max();
  return k < static_cast<double>(kMax) ? static_cast<int>(k) : kMax;
}

/// \brief Expected total runtime of an operator of duration `t` with
/// checkpointing: k segments, each re-tried independently per Eq. 8.
/// Includes the checkpoint-write costs (the final segment also writes the
/// operator's regular output, which is costed by tm as usual and not here).
double OperatorTotalRuntimeWithCheckpoints(double t,
                                           const CheckpointParams& ckpt,
                                           const FailureParams& params);

/// \brief The checkpoint interval minimizing the expected runtime of an
/// operator of duration `t` under the percentile model (exact discrete
/// minimization over segment counts). Returns t (no checkpointing) if no
/// interval beats the single-segment execution.
double OptimalCheckpointInterval(double t, double checkpoint_cost,
                                 const FailureParams& params);

/// \brief Young/Daly first-order approximation sqrt(2*C*MTBF), provided
/// for comparison with the exact minimizer.
double YoungDalyInterval(double checkpoint_cost, double mtbf_cost);

}  // namespace xdbft::ft
