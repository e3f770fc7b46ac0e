// Shared output helpers for the paper-reproduction harnesses: fixed-width
// table printing, the standard experiment header, and an env-gated
// machine-readable JSON-lines writer (BENCH_<name>.json).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/json.h"

namespace xdbft::bench {

/// \brief Prints "=== <title> ===" with the paper reference underneath.
inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

/// \brief Simple fixed-width table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {}

  void PrintHeaderRow() const {
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("%s ", PadLeft(headers_[i],
                                 static_cast<size_t>(widths_[i])).c_str());
    }
    std::printf("\n");
    int total = 0;
    for (int w : widths_) total += w + 1;
    std::printf("%s\n", std::string(static_cast<size_t>(total), '-').c_str());
  }

  void PrintRow(const std::vector<std::string>& cells) const {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::printf("%s ", PadLeft(cells[i],
                                 static_cast<size_t>(widths_[i])).c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// \brief One JSON object rendered in insertion order — the payload of a
/// BenchJsonWriter row.
class JsonLine {
 public:
  JsonLine& Set(const std::string& key, double v) {
    fields_.emplace_back(key, obs::JsonNumber(v));
    return *this;
  }
  JsonLine& Set(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, obs::JsonQuote(v));
    return *this;
  }
  JsonLine& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  JsonLine& Set(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
  }
  /// \brief Append all fields of `other` after this line's fields.
  JsonLine& Merge(const JsonLine& other) {
    fields_.insert(fields_.end(), other.fields_.begin(),
                   other.fields_.end());
    return *this;
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += obs::JsonQuote(fields_[i].first);
      out += ": ";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// \brief Writes one JSON object per line to
/// `$XDBFT_BENCH_JSON_DIR/BENCH_<name>.json`; disabled (every call a
/// no-op) when the environment variable is unset, so the human-readable
/// stdout tables stay the default. Every line is a `{"type": "row"}`
/// record of one measured configuration; the file holds nothing that
/// spans runs.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(const std::string& bench_name)
      : bench_name_(bench_name) {
    const char* dir = std::getenv("XDBFT_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return;
    path_ = std::string(dir) + "/BENCH_" + bench_name + ".json";
    out_.open(path_);
    if (!out_) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      path_.clear();
    }
  }

  bool enabled() const { return out_.is_open() && !path_.empty(); }

  /// \brief Emit one data row (the "bench" and "type" keys are added).
  void Write(const JsonLine& row) {
    if (!enabled()) return;
    JsonLine line;
    line.Set("bench", bench_name_).Set("type", "row");
    line.Merge(row);
    out_ << line.ToJson() << "\n";
  }

  const std::string& path() const { return path_; }

 private:
  std::string bench_name_;
  std::string path_;
  std::ofstream out_;
};

/// \brief Worker threads for the enumeration harnesses: $XDBFT_THREADS
/// (0 = hardware concurrency), default 1 so the published sequential
/// numbers stay the baseline. The chosen plans are identical either way;
/// only wall-clock changes.
inline int EnvThreads() {
  const char* s = std::getenv("XDBFT_THREADS");
  if (s == nullptr || *s == '\0') return 1;
  return std::atoi(s);
}

/// \brief "123.4" style or "Aborted" for incomplete runs.
inline std::string OverheadCell(bool completed, double overhead_percent) {
  if (!completed) return "Aborted";
  if (overhead_percent > -0.05 && overhead_percent < 0.0) {
    overhead_percent = 0.0;  // avoid "-0.0"
  }
  return StrFormat("%.1f", overhead_percent);
}

}  // namespace xdbft::bench
