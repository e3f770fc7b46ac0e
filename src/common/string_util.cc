#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cmath>

namespace xdbft {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string HumanDuration(double seconds) {
  if (seconds < 0) return "-" + HumanDuration(-seconds);
  if (seconds < 60.0) return StrFormat("%.2fs", seconds);
  const int64_t total = static_cast<int64_t>(seconds);
  const int64_t h = total / 3600;
  const int64_t m = (total % 3600) / 60;
  const double s = seconds - static_cast<double>(h * 3600 + m * 60);
  if (h > 0) return StrFormat("%ldh %02ldm %04.1fs", h, m, s);
  return StrFormat("%ldm %04.1fs", m, s);
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 5) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.1f %s", v, kUnits[unit]);
}

std::string PadLeft(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace xdbft
