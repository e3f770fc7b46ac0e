// Minimal expression tree evaluated against rows: column references,
// literals, arithmetic, comparisons and boolean connectives. Used by the
// filter/project operators of the execution engine. InferExprType is the
// one type check both engines run before evaluating an expression.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace xdbft::exec {

enum class ExprOp : int {
  kColumn,   // column reference by index
  kLiteral,  // constant
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
};

/// \brief Immutable expression node; build with the factory functions
/// below. Booleans are int64 0/1.
class Expr {
 public:
  using Ptr = std::shared_ptr<const Expr>;

  ExprOp op() const { return op_; }
  int column_index() const { return column_; }
  const Value& literal() const { return literal_; }
  const std::vector<Ptr>& children() const { return children_; }

  /// \brief Evaluate against a row.
  Value Eval(const Row& row) const;

  /// \brief Evaluate as a predicate (null/0 -> false).
  bool EvalBool(const Row& row) const;

  /// \brief Vectorized evaluation over the batch positions listed in
  /// `sel`: `out` becomes a dense vector with out[i] = Eval(row sel[i]).
  /// Typed kernels over flat int64/double arrays, value-identical to the
  /// row path: NULL propagation, int64 arithmetic that stays integral
  /// (wrapping) except division, Value::Compare ordering, and AND/OR
  /// evaluate their right child only at positions the left child does not
  /// decide, exactly like Eval. An expression that fails InferExprType
  /// over the batch's schema must not be evaluated.
  void EvalVector(const Batch& batch, const std::vector<int32_t>& sel,
                  Vector* out) const;

  /// \brief Vectorized predicate: filters `sel` in place, keeping the
  /// positions where EvalBool would return true (order preserved).
  /// Comparisons of columns with literals or columns read the batch in
  /// place.
  void EvalSelection(const Batch& batch, std::vector<int32_t>* sel) const;

  std::string ToString(const Schema* schema = nullptr) const;

  // Factory functions.
  static Ptr Col(int index);
  /// \brief Resolve a named column against `schema`.
  static Result<Ptr> Col(const Schema& schema, const std::string& name);
  static Ptr Lit(Value v);
  static Ptr Make(ExprOp op, std::vector<Ptr> children);

 private:
  Expr(ExprOp op, int column, Value literal, std::vector<Ptr> children)
      : op_(op),
        column_(column),
        literal_(std::move(literal)),
        children_(std::move(children)) {}

  ExprOp op_;
  int column_ = -1;
  Value literal_;
  std::vector<Ptr> children_;
};

// Convenience builders.
inline Expr::Ptr operator+(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kAdd, {std::move(a), std::move(b)});
}
inline Expr::Ptr operator-(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kSub, {std::move(a), std::move(b)});
}
inline Expr::Ptr operator*(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kMul, {std::move(a), std::move(b)});
}
inline Expr::Ptr operator/(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kDiv, {std::move(a), std::move(b)});
}
Expr::Ptr Eq(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Ne(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Lt(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Le(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Gt(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Ge(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr And(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Or(Expr::Ptr a, Expr::Ptr b);
Expr::Ptr Not(Expr::Ptr a);

/// \brief Type of `expr` over rows of `input`: a column has its column
/// type, a literal its own type, arithmetic is numeric (kInt64 for int64
/// operands other than division, else kDouble), comparisons and boolean
/// operators are kInt64. kNull means unknown and is never rejected.
/// Returns InvalidArgument when a comparison mixes a string with a numeric
/// operand, when arithmetic has a string operand (the evaluators would
/// abort on either), for a column index outside `input`, and for a null
/// or missing operand.
Result<ValueType> InferExprType(const Expr& expr, const Schema& input);

/// \brief Output schema of a projection: `names`, each typed by
/// InferExprType over `input` (kNull where unknown or ill-typed).
Schema ProjectSchema(const std::vector<Expr::Ptr>& exprs,
                     std::vector<std::string> names, const Schema& input);

/// \brief Projection check run at Open by both engines: one non-null,
/// well-typed expression per column of `output`.
Status CheckProjectExprs(const std::vector<Expr::Ptr>& exprs,
                         const Schema& output, const Schema& input);

/// \brief Hash-join key check run at Open by both engines: equally many,
/// non-empty, in-range key columns, and no pair of keys that mixes a
/// string with a numeric column.
Status CheckJoinKeys(const Schema& build, const std::vector<int>& build_keys,
                     const Schema& probe, const std::vector<int>& probe_keys);

}  // namespace xdbft::exec
