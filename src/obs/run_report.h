// RunReport: the one machine-readable record of a run. Every run carries
// its identity (tool, plan, chosen materialization configuration,
// cluster/model parameters), any collected query profiles and the run's
// own numbers, copied from the result structs of the run it describes
// (never from process-wide state); this is the document
// `xdbft_advisor --metrics-json` writes.
//
// A run that died — an executor abort past max_attempts, or a failed
// crosscheck — also fills the failure fields and is written as a
// post-mortem bundle: the reason, the FT attempt timeline and, for
// crosscheck violations, the minimized reproducer JSON plus its seed and a
// replay command line. The bundle explains and replays the failure without
// the original process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/attempt_log.h"
#include "obs/query_profile.h"

namespace xdbft::obs {

struct RunReport {
  /// Which binary or component produced the report ("xdbft_advisor",
  /// "ft_executor", "crosscheck").
  std::string tool;
  /// Plan identity (plan name; empty when not plan-scoped).
  std::string plan_name;
  /// Human-readable summary of the chosen configuration (materialized
  /// operator labels), when one was chosen.
  std::string config_summary;
  /// Free-form run parameters (nodes, mtbf_seconds, ...), values rendered
  /// as strings.
  std::map<std::string, std::string> params;
  /// Per-stage query profiles collected with --profile (may be empty).
  std::vector<QueryProfile> profiles;
  /// The run's own numbers, keyed "layer.quantity" (e.g.
  /// "executor.task_attempts"). The names contain dots: look them up with
  /// JsonValue::Find on the "metrics" object, not FindPath.
  std::map<std::string, double> metrics;

  /// Failure fields; the run died iff `reason` is non-empty.
  std::string reason;  // human-readable abort reason
  uint64_t seed = 0;   // reproducer seed (0 when not seed-driven)
  std::string replay;  // command line that replays the failure, if any
  AttemptTimeline timeline;
  std::string reproducer_json;  // embedded verbatim; empty -> null

  /// \brief `{"tool", "plan", "config", "params", "profiles", "metrics"}`,
  /// plus `"reason", "seed", "replay", "timeline", "reproducer"` when
  /// `reason` is non-empty.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;
};

// Writes `report` as postmortem-<tool>-<seed>-<n>.json under `dir`
// (created if missing) and returns the written path.
Result<std::string> WritePostMortem(const std::string& dir,
                                    const RunReport& report);

}  // namespace xdbft::obs
