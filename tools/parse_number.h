// Checked numeric flag values for the command-line tools. A value is
// accepted only if strtod consumes the whole token and the result is
// finite; an integer value must also be integral and within [lo, hi]
// (default: int range). This keeps "10x" from silently reading as 10,
// "abc" as 0, and "1e10" or "nan" from reaching an undefined double-to-int
// conversion. An unsigned 64-bit value is decimal digits only: no sign,
// no space, no overflow, so "-1" never wraps to 2^64 - 1.
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace xdbft::tools {

inline bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

inline bool ParseInt(const char* text, int* out, int lo = INT_MIN,
                     int hi = INT_MAX) {
  double v = 0.0;
  if (!ParseDouble(text, &v) || v != std::trunc(v) ||
      v < static_cast<double>(lo) || v > static_cast<double>(hi)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

inline bool ParseUint64(const char* text, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace xdbft::tools
