// Checked numeric flag values for the command-line tools. A value is
// accepted only if strtod consumes the whole token and the result is
// finite; an integer value must also be integral and within [lo, hi]
// (default: int range). This keeps "10x" from silently reading as 10,
// "abc" as 0, and "1e10" or "nan" from reaching an undefined double-to-int
// conversion. (Unsigned 64-bit values: xdbft::ParseUint64 in
// common/string_util.h.)
#pragma once

#include <climits>
#include <cmath>
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

}  // namespace xdbft::tools
