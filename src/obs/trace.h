// TraceRecorder: collects Chrome trace-event-format events ("X" complete
// spans, "i" instant events, "M" metadata) and serializes them to the JSON
// object form ({"traceEvents": [...]}) that chrome://tracing and Perfetto
// load directly. Timestamps are microseconds: real wall time (NowMicros(),
// used by the parallel enumerator) or a scaled AttemptTimeline (see
// obs::AddToTrace, which draws executor and simulator attempts). Thread-safe;
// events may be added concurrently.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace xdbft::obs {

/// \brief One "args" entry of a trace event, value pre-rendered as a JSON
/// literal (use the factories to get escaping right).
struct TraceArg {
  std::string key;
  std::string json_value;
};

TraceArg IntArg(const std::string& key, int64_t value);
TraceArg StrArg(const std::string& key, const std::string& value);

/// \brief One trace event in Chrome trace-event format.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';      // 'X' complete, 'i' instant, 'M' metadata
  double ts_us = 0.0;    // event start, microseconds
  double dur_us = 0.0;   // 'X' only
  int pid = 0;
  int tid = 0;
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// \brief Microseconds of real time since this recorder was created
  /// (the timestamp base for wall-clock spans).
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// \brief A span [ts_us, ts_us + dur_us] on lane (pid, tid).
  void AddComplete(const std::string& name, const std::string& category,
                   double ts_us, double dur_us, int pid, int tid,
                   std::vector<TraceArg> args = {});

  /// \brief A zero-duration marker (rendered as an arrow/tick).
  void AddInstant(const std::string& name, const std::string& category,
                  double ts_us, int pid, int tid,
                  std::vector<TraceArg> args = {});

  /// \brief Label the (pid) process / (pid, tid) thread lane in the viewer.
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, int tid, const std::string& name);

  size_t num_events() const;
  void Clear();

  /// \brief `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  void Add(TraceEvent event);

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace xdbft::obs
