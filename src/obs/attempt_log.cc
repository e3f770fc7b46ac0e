#include "obs/attempt_log.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace xdbft::obs {

std::string AttemptTimeline::ToText() const {
  std::string out;
  for (const auto& r : records) {
    out += StrFormat("[%9.3fs .. %9.3fs] %-24s stage=%d node=%d attempt=%d %s",
                     r.dispatch_seconds, r.finish_seconds, r.label.c_str(),
                     r.stage, r.node, r.attempt,
                     r.killed ? "KILLED" : "ok");
    if (r.rows_out > 0) {
      out += StrFormat(" rows=%llu", (unsigned long long)r.rows_out);
    }
    if (r.rows_lost > 0) {
      out += StrFormat(" rows_lost=%llu", (unsigned long long)r.rows_lost);
    }
    out += "\n";
  }
  return out;
}

std::string AttemptTimeline::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const AttemptRecord& r = records[i];
    if (i > 0) out += ", ";
    out += "{\"label\": ";
    out += JsonQuote(r.label);
    out += StrFormat(", \"stage\": %d, \"node\": %d, \"attempt\": %d", r.stage,
                     r.node, r.attempt);
    out += ", \"dispatch_seconds\": ";
    out += JsonNumber(r.dispatch_seconds);
    out += ", \"finish_seconds\": ";
    out += JsonNumber(r.finish_seconds);
    out += StrFormat(", \"killed\": %s, \"rows_out\": %llu, \"rows_lost\": %llu}",
                     r.killed ? "true" : "false",
                     (unsigned long long)r.rows_out,
                     (unsigned long long)r.rows_lost);
  }
  out += "]";
  return out;
}

void AddToTrace(const AttemptTimeline& timeline, TraceRecorder* trace,
                int pid, const std::string& process_name,
                double us_per_second) {
  int coordinator = 0;  // lane after the highest node
  bool has_coordinator = false;
  for (const AttemptRecord& r : timeline.records) {
    coordinator = std::max(coordinator, r.node + 1);
    has_coordinator = has_coordinator || r.node < 0;
  }
  trace->SetProcessName(pid, process_name);
  for (int k = 0; k < coordinator; ++k) {
    trace->SetThreadName(pid, k, "node " + std::to_string(k));
  }
  if (has_coordinator) trace->SetThreadName(pid, coordinator, "coordinator");

  // Killed attempts whose retry is not drawn yet, by (label, node): the
  // failure time in trace microseconds and the killed attempt's number.
  std::map<std::pair<std::string, int>, std::pair<double, int>> waiting;
  for (const AttemptRecord& r : timeline.records) {
    const int lane = r.node < 0 ? coordinator : r.node;
    const double start_us = r.dispatch_seconds * us_per_second;
    const double finish_us = r.finish_seconds * us_per_second;
    const auto key = std::make_pair(r.label, r.node);
    if (auto it = waiting.find(key); it != waiting.end()) {
      const auto [failed_us, killed_attempt] = it->second;
      if (r.attempt == killed_attempt + 1) {
        trace->AddComplete("wait", "wait", failed_us, start_us - failed_us,
                           pid, lane);
      }
      waiting.erase(it);
    }
    std::vector<TraceArg> args = {
        IntArg("stage", r.stage), IntArg("node", r.node),
        IntArg("attempt", r.attempt),
        IntArg("rows_out", static_cast<int64_t>(r.rows_out)),
        IntArg("rows_lost", static_cast<int64_t>(r.rows_lost))};
    const char* category =
        r.killed ? "killed" : r.attempt > 0 ? "recovery" : "attempt";
    trace->AddComplete(r.label, category, start_us, finish_us - start_us, pid,
                       lane, args);
    if (r.killed) {
      trace->AddInstant("failure", "failure", finish_us, pid, lane,
                        std::move(args));
      waiting[key] = {finish_us, r.attempt};
    }
  }
}

}  // namespace xdbft::obs
