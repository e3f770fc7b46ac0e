// Minimal JSON support for the observability layer: escaping/number
// rendering for the writers (trace files, run reports) and a strict
// recursive-descent parser used by tests and tools to validate and
// navigate the emitted documents. Not a general-purpose JSON
// library — no streaming, no comments, doubles only.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace xdbft::obs {

/// \brief Escape `s` into a double-quoted JSON string literal.
std::string JsonQuote(const std::string& s);

/// \brief Render a double as a JSON number ("null" for NaN/inf, which JSON
/// cannot represent).
std::string JsonNumber(double v);

/// \brief A parsed JSON document node.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// \brief Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// \brief `Find` chained over a dotted path ("params.nodes"). Keys that
  /// themselves contain dots need `Find`.
  const JsonValue* FindPath(const std::string& dotted_path) const;
};

/// \brief Strict parse of a complete JSON document (trailing whitespace
/// allowed, trailing garbage is an error).
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace xdbft::obs
