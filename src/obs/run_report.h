// RunReport: the one machine-readable record of a run. Every run carries
// its identity (tool, plan, chosen materialization configuration,
// cluster/model parameters), any collected query profiles and a metrics
// snapshot; this is the document `xdbft_advisor --metrics-json` writes.
//
// A run that died — an executor abort past max_attempts, or a failed
// crosscheck — also fills the failure fields and is written as a
// post-mortem bundle: the reason, the flight-recorder event tail, the FT
// attempt timeline and, for crosscheck violations, the minimized
// reproducer JSON plus its seed and a replay command line. The bundle
// explains and replays the failure without the original process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/attempt_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
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
  /// Point-in-time metrics at the end of the run.
  MetricsSnapshot metrics;

  /// Failure fields; the run died iff `reason` is non-empty.
  std::string reason;  // human-readable abort reason
  uint64_t seed = 0;   // reproducer seed (0 when not seed-driven)
  std::string replay;  // command line that replays the failure, if any
  std::vector<FlightEvent> events;  // flight-recorder tail, oldest first
  AttemptTimeline timeline;
  std::string reproducer_json;  // embedded verbatim; empty -> null

  /// \brief `{"tool", "plan", "config", "params", "profiles", "metrics"}`,
  /// plus `"reason", "seed", "replay", "events", "timeline",
  /// "reproducer"` when `reason` is non-empty.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;
};

// Captures the process-wide flight-recorder tail and metrics snapshot
// into `report` (the usual last step before writing a post-mortem).
void CaptureProcessState(RunReport* report);

// Writes `report` as postmortem-<tool>-<seed>-<n>.json under `dir`
// (created if missing) and returns the written path.
Result<std::string> WritePostMortem(const std::string& dir,
                                    const RunReport& report);

}  // namespace xdbft::obs
