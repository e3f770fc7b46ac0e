// FT attempt timeline: a per-stage attempt ledger recorded by the
// fault-tolerant executor (real wall-clock seconds, coordinator-side) and
// the cluster simulator (virtual seconds, single-threaded). One record
// per dispatched attempt; killed attempts carry the failure-detection
// time in finish_seconds, and rows_lost is backfilled on records whose
// output was later invalidated by a node failure.
//
// AttemptTimeline is not thread-safe: both producers record from a single
// thread by contract (the executor's wave loop, the simulator's event
// loop).
//
// The timeline is the only per-attempt record: Chrome trace timelines are
// drawn from it by AddToTrace, never written by the producers themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xdbft::obs {

class TraceRecorder;

struct AttemptRecord {
  std::string label;            // stage / collapsed-operator label
  int stage = -1;               // stage index; -1 when not applicable
  int node = -1;                // partition / node index; -1 for global
  int attempt = 0;              // 0-based attempt number for this unit
  double dispatch_seconds = 0;  // time the attempt started
  double finish_seconds = 0;    // finish, or failure-detection time if killed
  bool killed = false;
  uint64_t rows_out = 0;   // rows produced (executor only; 0 in simulator)
  uint64_t rows_lost = 0;  // rows invalidated by a later failure
};

struct AttemptTimeline {
  std::vector<AttemptRecord> records;

  bool empty() const { return records.empty(); }

  // One line per attempt, dispatch-ordered, for logs and post-mortems.
  std::string ToText() const;
  // JSON array of attempt objects.
  std::string ToJson() const;
};

/// \brief Draws `timeline` into `trace` as process `pid`, named
/// `process_name`, with timestamps scaled by `us_per_second` (1e6 for
/// wall-clock seconds). Per record: one "X" span over [dispatch, finish]
/// on lane `node`, or on a final lane named "coordinator" for node -1 (a
/// global stage or a whole-query restart); its category is "attempt" for a
/// successful attempt 0, "recovery" for a successful later attempt and
/// "killed" for a killed one, and its args carry stage, node, attempt,
/// rows_out and rows_lost. A killed record also draws a "failure" instant
/// at its finish and a "wait" span from there to the dispatch of the next
/// attempt of the same (label, node).
void AddToTrace(const AttemptTimeline& timeline, TraceRecorder* trace,
                int pid, const std::string& process_name,
                double us_per_second);

}  // namespace xdbft::obs
