// Shared aggregate core: AggFunc/AggSpec (the aggregate description) and
// the accumulate/finalize kernels. Both the row-engine HashAggregateOperator
// and the vectorized aggregate sink (pipeline.cc) call these, so SQL NULL
// semantics cannot diverge between the two engines:
//   - COUNT(expr) counts only non-NULL arguments; COUNT(*) is the
//     null-argument form and counts rows.
//   - SUM/AVG over zero non-NULL inputs is NULL (not 0).
//   - MIN/MAX ignore NULLs and are NULL when no input survives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/expr.h"
#include "exec/value.h"

namespace xdbft::exec {

/// \brief Aggregate functions.
enum class AggFunc : int { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  /// Argument; nullptr means COUNT(*) (only valid for kCount).
  Expr::Ptr arg;
  std::string name = "agg";
};

/// \brief Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;  // non-NULL inputs seen (rows for COUNT(*))
  double sum = 0.0;
  Value min, max;
};

/// \brief Every non-count spec needs an argument expression, each
/// argument must type-check over `input` (InferExprType), and SUM/AVG
/// arguments must not be strings.
inline Status ValidateAggSpecs(const std::vector<AggSpec>& aggs,
                               const Schema& input) {
  for (const auto& a : aggs) {
    if (a.arg == nullptr) {
      if (a.func == AggFunc::kCount) continue;
      return Status::InvalidArgument("aggregate '" + a.name +
                                     "' needs an argument expression");
    }
    XDBFT_ASSIGN_OR_RETURN(const ValueType t, InferExprType(*a.arg, input));
    if (t == ValueType::kString &&
        (a.func == AggFunc::kSum || a.func == AggFunc::kAvg)) {
      return Status::InvalidArgument("aggregate '" + a.name +
                                     "' sums a string argument");
    }
  }
  return Status::OK();
}

/// \brief Output schema of an aggregation: the `group_by` columns of
/// `input`, then one column per aggregate. COUNT is int64, SUM and AVG are
/// double, MIN and MAX have their argument's type (kNull when it does not
/// type-check; ValidateAggSpecs rejects that plan at Open).
inline Schema AggregateSchema(const Schema& input,
                              const std::vector<int>& group_by,
                              const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  for (int g : group_by) cols.push_back(input.column(g));
  for (const auto& a : aggs) {
    ValueType type = ValueType::kNull;
    switch (a.func) {
      case AggFunc::kCount:
        type = ValueType::kInt64;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        type = ValueType::kDouble;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (a.arg != nullptr) {
          const Result<ValueType> t = InferExprType(*a.arg, input);
          if (t.ok()) type = *t;
        }
        break;
    }
    cols.push_back({a.name, type});
  }
  return Schema(std::move(cols));
}

/// \brief Fold one evaluated argument into `state`. NULL inputs are
/// skipped for every function, including COUNT(expr).
inline void AccumulateValue(AggFunc func, const Value& v, AggState* state) {
  if (v.is_null()) return;
  ++state->count;
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      state->sum += v.AsDouble();
      break;
    case AggFunc::kMin:
      if (state->min.is_null() || v < state->min) state->min = v;
      break;
    case AggFunc::kMax:
      if (state->max.is_null() || state->max < v) state->max = v;
      break;
    case AggFunc::kCount:
      break;
  }
}

/// \brief COUNT(*): counts the row regardless of any value.
inline void AccumulateStar(AggState* state) { ++state->count; }

/// \brief Final value of one aggregate. SUM and AVG of zero non-NULL
/// inputs are NULL (SQL semantics), as are MIN/MAX. A NaN SUM/AVG is the
/// canonical NaN (once a NaN enters a sum the sum stays NaN, but which
/// one depends on the engine's code path).
inline Value FinalizeAgg(AggFunc func, const AggState& state) {
  switch (func) {
    case AggFunc::kCount:
      return Value(state.count);
    case AggFunc::kSum:
      return state.count == 0 ? Value() : Value(CanonicalNaN(state.sum));
    case AggFunc::kAvg:
      return state.count == 0
                 ? Value()
                 : Value(CanonicalNaN(state.sum /
                                      static_cast<double>(state.count)));
    case AggFunc::kMin:
      return state.min;
    case AggFunc::kMax:
      return state.max;
  }
  return Value();
}

}  // namespace xdbft::exec
