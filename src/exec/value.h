// Value/Row model of the in-process execution engine: a small dynamically
// typed value (int64 / double / string / null) with comparisons and
// hashing, and rows as value vectors.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace xdbft::exec {

/// \brief Column type tags.
enum class ValueType : int { kNull, kInt64, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// \brief A dynamically typed SQL-ish value. Dates are stored as kInt64
/// days since 1992-01-01 (the TPC-H epoch).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t i) : v_(i) {}            // NOLINT(runtime/explicit)
  Value(int i) : v_(int64_t{i}) {}       // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}             // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT(runtime/explicit)
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT(runtime/explicit)

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  ValueType type() const;

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// \brief Three-way comparison; nulls sort first; numeric types compare
  /// by value (int vs double allowed). Comparing string to numeric aborts.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// \brief Hash compatible with ==: numerically equal int/double hash the
  /// same.
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// \brief A row of values.
using Row = std::vector<Value>;

/// \brief Extract a key tuple from a row.
Row ExtractKey(const Row& row, const std::vector<int>& key_columns);

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const auto& v : row) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

}  // namespace xdbft::exec
