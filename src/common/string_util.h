// Small string helpers used by explain printers and the benchmark harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xdbft {

/// \brief Join the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// \brief Split `s` on a single-character delimiter (no empty trailing part).
std::vector<std::string> Split(const std::string& s, char delim);

/// \brief printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Render seconds as "1h 02m 03.4s" style human duration.
std::string HumanDuration(double seconds);

/// \brief Render a byte count as "1.2 GiB" style.
std::string HumanBytes(uint64_t bytes);

/// \brief Left-pad `s` with spaces to at least `width` characters.
std::string PadLeft(const std::string& s, size_t width);

/// \brief Right-pad `s` with spaces to at least `width` characters.
std::string PadRight(const std::string& s, size_t width);

/// \brief Parse all of `text` as an unsigned 64-bit decimal: digits only
/// (no sign, space or embedded NUL), at least one, and no overflow, so
/// "-1" never wraps to 2^64 - 1 and 2^64 + 1 never wraps to 1. Leaves
/// `out` untouched and returns false otherwise.
bool ParseUint64(std::string_view text, uint64_t* out);

}  // namespace xdbft
