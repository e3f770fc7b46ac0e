#include "exec/value.h"

#include <cmath>
#include <functional>

#include "common/logging.h"

namespace xdbft::exec {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

ValueType Value::type() const {
  if (std::holds_alternative<std::monostate>(v_)) return ValueType::kNull;
  if (std::holds_alternative<int64_t>(v_)) return ValueType::kInt64;
  if (std::holds_alternative<double>(v_)) return ValueType::kDouble;
  return ValueType::kString;
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(v_)) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  return std::get<double>(v_);
}

int Value::Compare(const Value& other) const {
  const bool n1 = is_null(), n2 = other.is_null();
  if (n1 || n2) return static_cast<int>(n2) - static_cast<int>(n1);
  const bool s1 = type() == ValueType::kString;
  const bool s2 = other.type() == ValueType::kString;
  XDBFT_CHECK(s1 == s2) << "comparing string with numeric value";
  if (s1) return CompareStrings(AsString(), other.AsString());
  return CompareDoubles(AsDouble(), other.AsDouble());
}

size_t HashDouble(double d) {
  const double r = std::nearbyint(d);
  if (r == d && std::fabs(d) < 9.2e18) {
    return std::hash<int64_t>{}(static_cast<int64_t>(r));
  }
  return std::hash<double>{}(d);
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return HashDouble(AsDouble());
    case ValueType::kString:
      return HashString(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

Row ExtractKey(const Row& row, const std::vector<int>& key_columns) {
  Row key;
  key.reserve(key_columns.size());
  for (int c : key_columns) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

}  // namespace xdbft::exec
