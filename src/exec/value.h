// Value/Row model of the in-process execution engine: a small dynamically
// typed value (int64 / double / string / null) with comparisons and
// hashing, and rows as value vectors.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
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

  // In-place setters: the row view refills one Row per scanned row, and a
  // cell that keeps its type is assigned without a temporary Value (a
  // string reuses its buffer).
  void SetNull() { v_ = std::monostate{}; }
  void SetInt64(int64_t i) { v_ = i; }
  void SetDouble(double d) { v_ = d; }
  void AssignString(std::string_view s) {
    if (auto* p = std::get_if<std::string>(&v_)) {
      p->assign(s.data(), s.size());
    } else {
      v_ = std::string(s);
    }
  }
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

// Value::Hash of each cell kind, shared with the typed column kernels so
// columnar partitioning and grouping hash exactly like the row engine.
inline constexpr size_t kNullHash = 0x9e3779b97f4a7c15ULL;
/// \brief Numerically equal int64/double hash identically: integral
/// doubles hash as their integer value.
size_t HashDouble(double d);
inline size_t HashInt64(int64_t i) {
  return HashDouble(static_cast<double>(i));
}
inline size_t HashString(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

/// \brief `d`, with every NaN replaced by the one quiet NaN. Which NaN an
/// IEEE operation on NaN operands returns depends on the order the compiled
/// code reads its operands in, which differs between the row and the typed
/// kernels; both engines pass every double they compute through this, so
/// their results stay bit-identical.
inline double CanonicalNaN(double d) {
  return d != d ? std::numeric_limits<double>::quiet_NaN() : d;
}

/// \brief Value::Compare of two numeric values (both sides as double): -1,
/// 0 or 1. NaN compares equal to everything, as it does for Value.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// \brief Value::Compare of two strings (bytewise): -1, 0 or 1.
inline int CompareStrings(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// \brief A row of values.
using Row = std::vector<Value>;

/// \brief Extract a key tuple from a row.
Row ExtractKey(const Row& row, const std::vector<int>& key_columns);

/// \brief RowHash folds its cells' hashes FNV-style: start from
/// kRowHashSeed, then RowHashStep per cell (the typed kernels fold the same
/// way over column cells).
inline constexpr size_t kRowHashSeed = 0xcbf29ce484222325ULL;
inline size_t RowHashStep(size_t h, size_t cell_hash) {
  return (h ^ cell_hash) * 0x100000001b3ULL;
}

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = kRowHashSeed;
    for (const auto& v : row) h = RowHashStep(h, v.Hash());
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
