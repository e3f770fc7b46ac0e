#include "obs/trace.h"

#include <fstream>

#include "common/string_util.h"
#include "obs/json.h"

namespace xdbft::obs {

TraceArg IntArg(const std::string& key, int64_t value) {
  return TraceArg{key, StrFormat("%lld", static_cast<long long>(value))};
}

TraceArg StrArg(const std::string& key, const std::string& value) {
  return TraceArg{key, JsonQuote(value)};
}

void TraceRecorder::Add(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddComplete(const std::string& name,
                                const std::string& category, double ts_us,
                                double dur_us, int pid, int tid,
                                std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  Add(std::move(e));
}

void TraceRecorder::AddInstant(const std::string& name,
                               const std::string& category, double ts_us,
                               int pid, int tid, std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  Add(std::move(e));
}

void TraceRecorder::SetProcessName(int pid, const std::string& name) {
  TraceEvent e;
  e.name = "process_name";
  e.category = "__metadata";
  e.phase = 'M';
  e.pid = pid;
  e.args.push_back(StrArg("name", name));
  Add(std::move(e));
}

void TraceRecorder::SetThreadName(int pid, int tid, const std::string& name) {
  TraceEvent e;
  e.name = "thread_name";
  e.category = "__metadata";
  e.phase = 'M';
  e.pid = pid;
  e.tid = tid;
  e.args.push_back(StrArg("name", name));
  Add(std::move(e));
}

size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": ";
    out += JsonQuote(e.name);
    out += ", \"cat\": ";
    out += JsonQuote(e.category);
    out += ", \"ph\": \"";
    out += e.phase;
    out += "\", \"ts\": ";
    out += JsonNumber(e.ts_us);
    if (e.phase == 'X') {
      out += ", \"dur\": ";
      out += JsonNumber(e.dur_us);
    }
    if (e.phase == 'i') out += ", \"s\": \"t\"";  // thread-scoped instant
    out += StrFormat(", \"pid\": %d, \"tid\": %d", e.pid, e.tid);
    if (!e.args.empty()) {
      out += ", \"args\": {";
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) out += ", ";
        out += JsonQuote(e.args[a].key);
        out += ": ";
        out += e.args[a].json_value;
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  out << ToJson();
  if (!out.good()) {
    return Status::Internal("failed writing trace output file: " + path);
  }
  return Status::OK();
}

}  // namespace xdbft::obs
