#include "obs/run_report.h"

#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"
#include "obs/json.h"

namespace xdbft::obs {

namespace {

std::string SanitizeForFilename(const std::string& s) {
  std::string out;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("run") : out;
}

// Drops trailing newlines/spaces so an embedded document stays tidy.
std::string TrimTrailing(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

// Renders `members` as a JSON object one level deep in the report, each
// value through `render`.
template <typename Map, typename Render>
std::string ObjectJson(const Map& members, Render render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : members) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += JsonQuote(key);
    out += ": ";
    out += render(value);
  }
  return out + "\n  }";
}

}  // namespace

std::string RunReport::ToJson() const {
  std::string out = "{\n  \"tool\": ";
  out += JsonQuote(tool);
  out += ",\n  \"plan\": ";
  out += JsonQuote(plan_name);
  out += ",\n  \"config\": ";
  out += JsonQuote(config_summary);
  out += ",\n  \"params\": ";
  out += ObjectJson(params, JsonQuote);
  out += ",";
  if (!reason.empty()) {
    out += "\n  \"reason\": ";
    out += JsonQuote(reason);
    out += StrFormat(",\n  \"seed\": %llu", (unsigned long long)seed);
    out += ",\n  \"replay\": ";
    out += JsonQuote(replay);
    out += ",\n  \"timeline\": ";
    out += timeline.ToJson();
    out += ",\n  \"reproducer\": ";
    // Already a complete JSON document; embedded verbatim.
    out += reproducer_json.empty() ? "null" : TrimTrailing(reproducer_json);
    out += ",";
  }
  out += "\n  \"profiles\": [";
  for (size_t i = 0; i < profiles.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += profiles[i].ToJson();
  }
  out += "\n  ],\n  \"metrics\": ";
  out += ObjectJson(metrics, JsonNumber);
  out += "\n}\n";
  return out;
}

Status RunReport::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open report output file: " + path);
  }
  out << ToJson();
  if (!out.good()) {
    return Status::Internal("failed writing report output file: " + path);
  }
  return Status::OK();
}

Result<std::string> WritePostMortem(const std::string& dir,
                                    const RunReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create post-mortem dir " + dir + ": " +
                            ec.message());
  }
  // Process-local counter keeps multiple bundles from one run distinct.
  static std::atomic<uint64_t> bundle_counter{0};
  const uint64_t n = bundle_counter.fetch_add(1);
  const std::string path =
      dir + "/postmortem-" + SanitizeForFilename(report.tool) +
      StrFormat("-%llu-%llu.json", (unsigned long long)report.seed,
                (unsigned long long)n);
  XDBFT_RETURN_NOT_OK(report.WriteFile(path));
  return path;
}

}  // namespace xdbft::obs
