// MaterializationConfig: the set of m(o) flags for a plan (paper §2.1,
// "materialization configuration M_P").
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"

namespace xdbft::ft {

/// \brief m(o) for every operator of one plan.
///
/// Invariants (established by the factory functions and checked by
/// Validate): bound operators keep their forced value; sink operators are
/// always materialized (the query result must be produced).
class MaterializationConfig {
 public:
  MaterializationConfig() = default;
  explicit MaterializationConfig(size_t num_ops)
      : mat_(num_ops, false) {}

  size_t size() const { return mat_.size(); }
  bool materialized(plan::OpId id) const {
    return mat_[static_cast<size_t>(id)];
  }
  void set_materialized(plan::OpId id, bool m) {
    mat_[static_cast<size_t>(id)] = m;
  }

  /// \brief Number of materialized operators.
  size_t NumMaterialized() const;

  /// \brief Configuration with m(o)=0 for all free operators (bound and
  /// sink operators forced as required). The "no-mat" strategies.
  static MaterializationConfig NoMat(const plan::Plan& plan);

  /// \brief Configuration with m(o)=1 everywhere except operators bound to
  /// kNeverMaterialize. The "all-mat" (Hadoop-style) strategy.
  static MaterializationConfig AllMat(const plan::Plan& plan);

  /// \brief Configuration from a bitmask over the plan's *free, non-sink*
  /// operators in ascending id order (bit i == 1 -> materialize the i-th
  /// free operator). Used by the enumeration procedure; bound/sink
  /// operators are forced as required.
  static MaterializationConfig FromFreeMask(const plan::Plan& plan,
                                            uint64_t mask);

  /// \brief Set m(o) of every operator in `free_ops` (the plan's
  /// EnumerableOperators) to bit i of `mask`. Every other m(o) is forced
  /// by a constraint or by being a sink, so on any configuration that
  /// passes Validate(plan) the result equals FromFreeMask(plan, mask).
  void SetFreeMask(const std::vector<plan::OpId>& free_ops, uint64_t mask) {
    for (size_t i = 0; i < free_ops.size(); ++i) {
      set_materialized(free_ops[i], (mask >> i) & 1);
    }
  }

  /// \brief Check the invariants against `plan`.
  Status Validate(const plan::Plan& plan) const;

  /// \brief e.g. "{m: 3,5,6,7}".
  std::string ToString() const;

  bool operator==(const MaterializationConfig& other) const {
    return mat_ == other.mat_;
  }

 private:
  std::vector<bool> mat_;
};

/// \brief Free operators eligible for enumeration: free per f(o) and not a
/// sink (sinks are always materialized). Ascending id order; bit i of a
/// FromFreeMask mask refers to element i of this list.
std::vector<plan::OpId> EnumerableOperators(const plan::Plan& plan);

}  // namespace xdbft::ft
