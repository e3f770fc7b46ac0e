#include "exec/expr.h"

#include "common/logging.h"

namespace xdbft::exec {

Expr::Ptr Expr::Col(int index) {
  XDBFT_CHECK(index >= 0);
  return Ptr(new Expr(ExprOp::kColumn, index, Value(), {}));
}

Result<Expr::Ptr> Expr::Col(const Schema& schema, const std::string& name) {
  XDBFT_ASSIGN_OR_RETURN(const int idx, schema.Find(name));
  return Col(idx);
}

Expr::Ptr Expr::Lit(Value v) {
  return Ptr(new Expr(ExprOp::kLiteral, -1, std::move(v), {}));
}

Expr::Ptr Expr::Make(ExprOp op, std::vector<Ptr> children) {
  return Ptr(new Expr(op, -1, Value(), std::move(children)));
}

namespace {

Value Arith(ExprOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value();
  // Integer arithmetic stays integral (except division).
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64 &&
      op != ExprOp::kDiv) {
    const int64_t x = a.AsInt64(), y = b.AsInt64();
    switch (op) {
      case ExprOp::kAdd:
        return Value(x + y);
      case ExprOp::kSub:
        return Value(x - y);
      case ExprOp::kMul:
        return Value(x * y);
      default:
        break;
    }
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case ExprOp::kAdd:
      return Value(x + y);
    case ExprOp::kSub:
      return Value(x - y);
    case ExprOp::kMul:
      return Value(x * y);
    case ExprOp::kDiv:
      return Value(x / y);
    default:
      break;
  }
  XDBFT_CHECK(false) << "not an arithmetic op";
  return Value();
}

}  // namespace

Value Expr::Eval(const Row& row) const {
  switch (op_) {
    case ExprOp::kColumn:
      return row[static_cast<size_t>(column_)];
    case ExprOp::kLiteral:
      return literal_;
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
      return Arith(op_, children_[0]->Eval(row), children_[1]->Eval(row));
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      const Value a = children_[0]->Eval(row);
      const Value b = children_[1]->Eval(row);
      if (a.is_null() || b.is_null()) return Value();
      const int c = a.Compare(b);
      bool r = false;
      switch (op_) {
        case ExprOp::kEq:
          r = c == 0;
          break;
        case ExprOp::kNe:
          r = c != 0;
          break;
        case ExprOp::kLt:
          r = c < 0;
          break;
        case ExprOp::kLe:
          r = c <= 0;
          break;
        case ExprOp::kGt:
          r = c > 0;
          break;
        case ExprOp::kGe:
          r = c >= 0;
          break;
        default:
          break;
      }
      return Value(int64_t{r});
    }
    case ExprOp::kAnd: {
      // Short-circuit.
      if (!children_[0]->EvalBool(row)) return Value(int64_t{0});
      return Value(int64_t{children_[1]->EvalBool(row)});
    }
    case ExprOp::kOr: {
      if (children_[0]->EvalBool(row)) return Value(int64_t{1});
      return Value(int64_t{children_[1]->EvalBool(row)});
    }
    case ExprOp::kNot:
      return Value(int64_t{!children_[0]->EvalBool(row)});
  }
  return Value();
}

namespace {

// The truthiness rule of EvalBool, applied to an already-computed value.
bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == ValueType::kInt64) return v.AsInt64() != 0;
  if (v.type() == ValueType::kDouble) return v.AsDouble() != 0.0;
  return true;
}

bool CompareHolds(ExprOp op, const Value& a, const Value& b) {
  const int c = a.Compare(b);
  switch (op) {
    case ExprOp::kEq:
      return c == 0;
    case ExprOp::kNe:
      return c != 0;
    case ExprOp::kLt:
      return c < 0;
    case ExprOp::kLe:
      return c <= 0;
    case ExprOp::kGt:
      return c > 0;
    case ExprOp::kGe:
      return c >= 0;
    default:
      XDBFT_CHECK(false) << "not a comparison op";
      return false;
  }
}

}  // namespace

bool Expr::EvalBool(const Row& row) const {
  return Truthy(Eval(row));
}

void Expr::EvalVector(const Batch& batch, const std::vector<int32_t>& sel,
                      std::vector<Value>* out) const {
  const size_t n = sel.size();
  out->clear();
  out->reserve(n);
  switch (op_) {
    case ExprOp::kColumn: {
      const auto& col = batch.columns[static_cast<size_t>(column_)];
      for (const int32_t r : sel) {
        out->push_back(col[static_cast<size_t>(r)]);
      }
      return;
    }
    case ExprOp::kLiteral:
      out->assign(n, literal_);
      return;
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      // Column and literal operands are read in place; only composite
      // children are materialized. Avoids one temp vector (and a Value
      // copy per position) per trivial operand.
      const Expr& l = *children_[0];
      const Expr& r = *children_[1];
      const bool l_direct =
          l.op_ == ExprOp::kColumn || l.op_ == ExprOp::kLiteral;
      const bool r_direct =
          r.op_ == ExprOp::kColumn || r.op_ == ExprOp::kLiteral;
      std::vector<Value> la, ra;
      if (!l_direct) l.EvalVector(batch, sel, &la);
      if (!r_direct) r.EvalVector(batch, sel, &ra);
      const auto operand = [&batch, &sel](const Expr& e,
                                          const std::vector<Value>& mat,
                                          bool direct,
                                          size_t i) -> const Value& {
        if (!direct) return mat[i];
        return e.op_ == ExprOp::kColumn
                   ? batch.columns[static_cast<size_t>(e.column_)]
                                  [static_cast<size_t>(sel[i])]
                   : e.literal_;
      };
      const bool is_arith = op_ == ExprOp::kAdd || op_ == ExprOp::kSub ||
                            op_ == ExprOp::kMul || op_ == ExprOp::kDiv;
      for (size_t i = 0; i < n; ++i) {
        const Value& a = operand(l, la, l_direct, i);
        const Value& b = operand(r, ra, r_direct, i);
        if (is_arith) {
          if (a.type() == ValueType::kDouble &&
              b.type() == ValueType::kDouble) {
            // Double-typed operands skip Arith's null checks and numeric
            // promotion dispatch (identical result: Arith computes
            // double op double for this type combination).
            const double x = a.AsDouble(), y = b.AsDouble();
            double v = 0.0;
            switch (op_) {
              case ExprOp::kAdd: v = x + y; break;
              case ExprOp::kSub: v = x - y; break;
              case ExprOp::kMul: v = x * y; break;
              default: v = x / y; break;
            }
            out->push_back(Value(v));
          } else {
            out->push_back(Arith(op_, a, b));
          }
        } else if (a.is_null() || b.is_null()) {
          out->push_back(Value());
        } else {
          out->push_back(Value(int64_t{CompareHolds(op_, a, b)}));
        }
      }
      return;
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      // Short-circuit like the row path: the right child is only
      // evaluated at positions the left child does not decide.
      std::vector<Value> left;
      children_[0]->EvalVector(batch, sel, &left);
      const bool is_and = op_ == ExprOp::kAnd;
      std::vector<int32_t> rest;       // positions needing the right child
      std::vector<size_t> rest_slot;   // their index in `out`
      for (size_t i = 0; i < n; ++i) {
        const bool l = Truthy(left[i]);
        if (l == is_and) {
          out->push_back(Value());  // placeholder, filled below
          rest.push_back(sel[i]);
          rest_slot.push_back(i);
        } else {
          out->push_back(Value(int64_t{!is_and}));
        }
      }
      if (!rest.empty()) {
        std::vector<Value> right;
        children_[1]->EvalVector(batch, rest, &right);
        for (size_t j = 0; j < rest.size(); ++j) {
          (*out)[rest_slot[j]] = Value(int64_t{Truthy(right[j])});
        }
      }
      return;
    }
    case ExprOp::kNot: {
      std::vector<Value> child;
      children_[0]->EvalVector(batch, sel, &child);
      for (size_t i = 0; i < n; ++i) {
        out->push_back(Value(int64_t{!Truthy(child[i])}));
      }
      return;
    }
  }
}

void Expr::FilterRows(const std::vector<Row>& rows, size_t begin,
                      size_t end, std::vector<int32_t>* sel) const {
  sel->clear();
  const bool is_cmp = op_ == ExprOp::kEq || op_ == ExprOp::kNe ||
                      op_ == ExprOp::kLt || op_ == ExprOp::kLe ||
                      op_ == ExprOp::kGt || op_ == ExprOp::kGe;
  if (is_cmp) {
    const Expr& l = *children_[0];
    const Expr& r = *children_[1];
    const bool l_direct =
        l.op_ == ExprOp::kColumn || l.op_ == ExprOp::kLiteral;
    const bool r_direct =
        r.op_ == ExprOp::kColumn || r.op_ == ExprOp::kLiteral;
    if (l_direct && r_direct) {
      const auto operand = [](const Expr& e, const Row& row) -> const Value& {
        return e.op_ == ExprOp::kColumn
                   ? row[static_cast<size_t>(e.column_)]
                   : e.literal_;
      };
      for (size_t i = begin; i < end; ++i) {
        const Value& a = operand(l, rows[i]);
        const Value& b = operand(r, rows[i]);
        if (!a.is_null() && !b.is_null() && CompareHolds(op_, a, b)) {
          sel->push_back(static_cast<int32_t>(i - begin));
        }
      }
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    if (EvalBool(rows[i])) sel->push_back(static_cast<int32_t>(i - begin));
  }
}

void Expr::EvalSelection(const Batch& batch,
                         std::vector<int32_t>* sel) const {
  switch (op_) {
    case ExprOp::kAnd:
      // Successive refinement — right child sees only left survivors,
      // exactly the row path's short-circuit.
      children_[0]->EvalSelection(batch, sel);
      children_[1]->EvalSelection(batch, sel);
      return;
    case ExprOp::kOr: {
      std::vector<Value> left;
      children_[0]->EvalVector(batch, *sel, &left);
      std::vector<int32_t> rest;
      for (size_t i = 0; i < sel->size(); ++i) {
        if (!Truthy(left[i])) rest.push_back((*sel)[i]);
      }
      children_[1]->EvalSelection(batch, &rest);
      // Order-preserving union of left survivors and right survivors
      // (both are ordered subsequences of the incoming selection).
      std::vector<int32_t> merged;
      merged.reserve(sel->size());
      size_t ri = 0;
      for (size_t i = 0; i < sel->size(); ++i) {
        if (Truthy(left[i])) {
          merged.push_back((*sel)[i]);
        } else if (ri < rest.size() && rest[ri] == (*sel)[i]) {
          merged.push_back((*sel)[i]);
          ++ri;
        }
      }
      *sel = std::move(merged);
      return;
    }
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe: {
      // Column/literal operands are read in place (no per-position
      // materialization) — the dominant predicate shape in the engine.
      const Expr& l = *children_[0];
      const Expr& r = *children_[1];
      const auto operand = [&batch](const Expr& e,
                                    int32_t pos) -> const Value& {
        return e.op_ == ExprOp::kColumn
                   ? batch.columns[static_cast<size_t>(e.column_)]
                                  [static_cast<size_t>(pos)]
                   : e.literal_;
      };
      const bool fast =
          (l.op_ == ExprOp::kColumn || l.op_ == ExprOp::kLiteral) &&
          (r.op_ == ExprOp::kColumn || r.op_ == ExprOp::kLiteral);
      size_t kept = 0;
      if (fast) {
        for (size_t i = 0; i < sel->size(); ++i) {
          const Value& a = operand(l, (*sel)[i]);
          const Value& b = operand(r, (*sel)[i]);
          if (!a.is_null() && !b.is_null() && CompareHolds(op_, a, b)) {
            (*sel)[kept++] = (*sel)[i];
          }
        }
      } else {
        std::vector<Value> a, b;
        children_[0]->EvalVector(batch, *sel, &a);
        children_[1]->EvalVector(batch, *sel, &b);
        for (size_t i = 0; i < sel->size(); ++i) {
          if (!a[i].is_null() && !b[i].is_null() &&
              CompareHolds(op_, a[i], b[i])) {
            (*sel)[kept++] = (*sel)[i];
          }
        }
      }
      sel->resize(kept);
      return;
    }
    default: {
      std::vector<Value> vals;
      EvalVector(batch, *sel, &vals);
      size_t kept = 0;
      for (size_t i = 0; i < sel->size(); ++i) {
        if (Truthy(vals[i])) (*sel)[kept++] = (*sel)[i];
      }
      sel->resize(kept);
      return;
    }
  }
}

namespace {
const char* OpSymbol(ExprOp op) {
  switch (op) {
    case ExprOp::kAdd:
      return "+";
    case ExprOp::kSub:
      return "-";
    case ExprOp::kMul:
      return "*";
    case ExprOp::kDiv:
      return "/";
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "<>";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAnd:
      return "AND";
    case ExprOp::kOr:
      return "OR";
    default:
      return "?";
  }
}
}  // namespace

std::string Expr::ToString(const Schema* schema) const {
  switch (op_) {
    case ExprOp::kColumn:
      if (schema != nullptr &&
          column_ < static_cast<int>(schema->num_columns())) {
        return schema->column(column_).name;
      }
      return "$" + std::to_string(column_);
    case ExprOp::kLiteral:
      return literal_.ToString();
    case ExprOp::kNot:
      return "NOT (" + children_[0]->ToString(schema) + ")";
    default:
      return "(" + children_[0]->ToString(schema) + " " + OpSymbol(op_) +
             " " + children_[1]->ToString(schema) + ")";
  }
}

Expr::Ptr Eq(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kEq, {std::move(a), std::move(b)});
}
Expr::Ptr Ne(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kNe, {std::move(a), std::move(b)});
}
Expr::Ptr Lt(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kLt, {std::move(a), std::move(b)});
}
Expr::Ptr Le(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kLe, {std::move(a), std::move(b)});
}
Expr::Ptr Gt(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kGt, {std::move(a), std::move(b)});
}
Expr::Ptr Ge(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kGe, {std::move(a), std::move(b)});
}
Expr::Ptr And(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kAnd, {std::move(a), std::move(b)});
}
Expr::Ptr Or(Expr::Ptr a, Expr::Ptr b) {
  return Expr::Make(ExprOp::kOr, {std::move(a), std::move(b)});
}
Expr::Ptr Not(Expr::Ptr a) {
  return Expr::Make(ExprOp::kNot, {std::move(a)});
}

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

// The one operand combination Value::Compare cannot order.
bool MixesStringAndNumeric(ValueType a, ValueType b) {
  return (a == ValueType::kString && IsNumeric(b)) ||
         (IsNumeric(a) && b == ValueType::kString);
}

}  // namespace

Result<ValueType> InferExprType(const Expr& expr, const Schema& input) {
  switch (expr.op()) {
    case ExprOp::kColumn:
      if (expr.column_index() >= static_cast<int>(input.num_columns())) {
        return Status::InvalidArgument(
            "column $" + std::to_string(expr.column_index()) +
            " out of range (input has " +
            std::to_string(input.num_columns()) + " columns)");
      }
      return input.column(expr.column_index()).type;
    case ExprOp::kLiteral:
      return expr.literal().type();
    default:
      break;
  }
  const size_t arity = expr.op() == ExprOp::kNot ? 1 : 2;
  if (expr.children().size() != arity) {
    return Status::InvalidArgument("expression needs " +
                                   std::to_string(arity) + " operands");
  }
  ValueType t[2] = {ValueType::kNull, ValueType::kNull};
  for (size_t i = 0; i < arity; ++i) {
    if (expr.children()[i] == nullptr) {
      return Status::InvalidArgument("null expression operand");
    }
    XDBFT_ASSIGN_OR_RETURN(t[i], InferExprType(*expr.children()[i], input));
  }
  switch (expr.op()) {
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
      if (t[0] == ValueType::kString || t[1] == ValueType::kString) {
        return Status::InvalidArgument("arithmetic on a string operand: " +
                                       expr.ToString(&input));
      }
      return t[0] == ValueType::kInt64 && t[1] == ValueType::kInt64 &&
                     expr.op() != ExprOp::kDiv
                 ? ValueType::kInt64
                 : ValueType::kDouble;
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      if (MixesStringAndNumeric(t[0], t[1])) {
        return Status::InvalidArgument("comparing string with numeric: " +
                                       expr.ToString(&input));
      }
      return ValueType::kInt64;
    default:  // kAnd, kOr, kNot: booleans are int64 0/1
      return ValueType::kInt64;
  }
}

Schema ProjectSchema(const std::vector<Expr::Ptr>& exprs,
                     std::vector<std::string> names, const Schema& input) {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ValueType type = ValueType::kNull;
    if (i < exprs.size() && exprs[i] != nullptr) {
      const Result<ValueType> t = InferExprType(*exprs[i], input);
      if (t.ok()) type = *t;
    }
    cols.push_back({std::move(names[i]), type});
  }
  return Schema(std::move(cols));
}

Status CheckProjectExprs(const std::vector<Expr::Ptr>& exprs,
                         const Schema& output, const Schema& input) {
  if (exprs.size() != output.num_columns()) {
    return Status::InvalidArgument("project: exprs/names size mismatch");
  }
  for (const auto& e : exprs) {
    if (e == nullptr) return Status::InvalidArgument("null project expression");
    XDBFT_RETURN_NOT_OK(InferExprType(*e, input).status());
  }
  return Status::OK();
}

Status CheckJoinKeys(const Schema& build, const std::vector<int>& build_keys,
                     const Schema& probe, const std::vector<int>& probe_keys) {
  if (build_keys.size() != probe_keys.size() || build_keys.empty()) {
    return Status::InvalidArgument("join: bad key columns");
  }
  for (size_t i = 0; i < build_keys.size(); ++i) {
    const int b = build_keys[i], p = probe_keys[i];
    if (b < 0 || b >= static_cast<int>(build.num_columns()) || p < 0 ||
        p >= static_cast<int>(probe.num_columns())) {
      return Status::InvalidArgument("join: key column out of range");
    }
    if (MixesStringAndNumeric(build.column(b).type, probe.column(p).type)) {
      return Status::InvalidArgument(
          "join: key '" + build.column(b).name + "' (" +
          ValueTypeName(build.column(b).type) + ") vs '" +
          probe.column(p).name + "' (" +
          ValueTypeName(probe.column(p).type) + ")");
    }
  }
  return Status::OK();
}

}  // namespace xdbft::exec
