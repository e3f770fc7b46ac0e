#include "exec/expr.h"

#include <string_view>
#include <type_traits>

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
    // Two's-complement wrap (computed in uint64_t): an overflowing plan
    // such as INT64_MAX + 1 is defined, and equals the typed kernels'.
    const uint64_t x = static_cast<uint64_t>(a.AsInt64());
    const uint64_t y = static_cast<uint64_t>(b.AsInt64());
    switch (op) {
      case ExprOp::kAdd:
        return Value(static_cast<int64_t>(x + y));
      case ExprOp::kSub:
        return Value(static_cast<int64_t>(x - y));
      case ExprOp::kMul:
        return Value(static_cast<int64_t>(x * y));
      default:
        break;
    }
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case ExprOp::kAdd:
      return Value(CanonicalNaN(x + y));
    case ExprOp::kSub:
      return Value(CanonicalNaN(x - y));
    case ExprOp::kMul:
      return Value(CanonicalNaN(x * y));
    case ExprOp::kDiv:
      return Value(CanonicalNaN(x / y));
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

}  // namespace

bool Expr::EvalBool(const Row& row) const {
  return Truthy(Eval(row));
}

namespace {

// ---------------------------------------------------------------------------
// Typed kernels. An operand is a literal (scalar), a batch column read
// through the selection (sel), or a dense vector a child evaluated (one
// entry per selected position). Accessors present each kind as a
// position -> value functor, so one loop template serves every pairing.

struct Operand {
  enum Kind { kScalar, kSel, kDense };
  Kind kind = kScalar;
  ValueType type = ValueType::kNull;  // kNull: every position is NULL
  const Vector* vec = nullptr;        // kSel, kDense
  const int32_t* sel = nullptr;       // kSel
  int64_t i = 0;                      // kScalar kInt64
  double d = 0.0;                     // kScalar kDouble
  std::string_view s;                 // kScalar kString

  static Operand Literal(const Value& v) {
    Operand o;
    o.type = v.type();
    switch (o.type) {
      case ValueType::kInt64:
        o.i = v.AsInt64();
        break;
      case ValueType::kDouble:
        o.d = v.AsDouble();
        break;
      case ValueType::kString:
        o.s = v.AsString();
        break;
      case ValueType::kNull:
        break;
    }
    return o;
  }
  static Operand Column(const Vector& v, const int32_t* sel) {
    Operand o;
    o.kind = kSel;
    o.type = v.type;
    o.vec = &v;
    o.sel = sel;
    return o;
  }
  static Operand Dense(const Vector& v) {
    Operand o;
    o.kind = kDense;
    o.type = v.type;
    o.vec = &v;
    return o;
  }

  bool may_be_null() const {
    return type == ValueType::kNull ||
           (vec != nullptr && !vec->validity.empty());
  }
  size_t Index(size_t pos) const {
    return kind == kSel ? static_cast<size_t>(sel[pos]) : pos;
  }
  bool IsNull(size_t pos) const {
    if (type == ValueType::kNull) return true;
    return kind != kScalar && vec->IsNull(Index(pos));
  }
  std::string_view StringAt(size_t pos) const {
    return kind == kScalar ? s : vec->StringAt(Index(pos));
  }
};

template <typename T>
struct ScalarAcc {
  T v;
  T operator()(size_t) const { return v; }
};
template <typename T>
struct SelAcc {
  const T* p;
  const int32_t* sel;
  T operator()(size_t i) const { return p[sel[i]]; }
};
template <typename T>
struct DenseAcc {
  const T* p;
  T operator()(size_t i) const { return p[i]; }
};

// Calls fn with the typed accessor of a numeric operand.
template <typename Fn>
void VisitNumeric(const Operand& o, Fn&& fn) {
  if (o.type == ValueType::kInt64) {
    switch (o.kind) {
      case Operand::kScalar:
        return fn(ScalarAcc<int64_t>{o.i});
      case Operand::kSel:
        return fn(SelAcc<int64_t>{o.vec->i64.data(), o.sel});
      case Operand::kDense:
        return fn(DenseAcc<int64_t>{o.vec->i64.data()});
    }
  }
  XDBFT_CHECK(o.type == ValueType::kDouble) << "not a numeric operand";
  switch (o.kind) {
    case Operand::kScalar:
      return fn(ScalarAcc<double>{o.d});
    case Operand::kSel:
      return fn(SelAcc<double>{o.vec->f64.data(), o.sel});
    case Operand::kDense:
      return fn(DenseAcc<double>{o.vec->f64.data()});
  }
}

bool IsCompare(ExprOp op) {
  return op == ExprOp::kEq || op == ExprOp::kNe || op == ExprOp::kLt ||
         op == ExprOp::kLe || op == ExprOp::kGt || op == ExprOp::kGe;
}

bool IsArith(ExprOp op) {
  return op == ExprOp::kAdd || op == ExprOp::kSub || op == ExprOp::kMul ||
         op == ExprOp::kDiv;
}

bool IsDirect(const Expr& e) {
  return e.op() == ExprOp::kColumn || e.op() == ExprOp::kLiteral;
}

// emit(i, holds) for every position, with holds = (a(i) op b(i)) under
// Value::Compare (numeric operands compared as doubles).
template <typename A, typename B, typename Emit>
void CompareLoop(ExprOp op, A a, B b, size_t n, Emit emit) {
  const auto cmp = [&](size_t i) {
    return CompareDoubles(static_cast<double>(a(i)), static_cast<double>(b(i)));
  };
  switch (op) {
    case ExprOp::kEq:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) == 0);
      return;
    case ExprOp::kNe:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) != 0);
      return;
    case ExprOp::kLt:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) < 0);
      return;
    case ExprOp::kLe:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) <= 0);
      return;
    case ExprOp::kGt:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) > 0);
      return;
    case ExprOp::kGe:
      for (size_t i = 0; i < n; ++i) emit(i, cmp(i) >= 0);
      return;
    default:
      XDBFT_CHECK(false) << "not a comparison op";
  }
}

bool CompareResult(ExprOp op, int c) {
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

// String comparison at one non-NULL position. Codes of one dictionary are
// equal exactly when their strings are, and a column compared with a
// literal over a small dictionary resolves each code once.
class StringCompare {
 public:
  StringCompare(ExprOp op, const Operand& a, const Operand& b, size_t n)
      : op_(op), a_(a), b_(b) {
    same_dict_ = a.kind != Operand::kScalar && b.kind != Operand::kScalar &&
                 a.vec->dict == b.vec->dict;
    if (a.kind != Operand::kScalar && b.kind == Operand::kScalar &&
        a.vec->dict->values.size() <= n) {
      lut_.assign(a.vec->dict->values.size(), -1);
    }
  }

  bool Holds(size_t pos) {
    const size_t ia = a_.Index(pos);
    if (!lut_.empty()) {
      const uint32_t code = a_.vec->codes[ia];
      int8_t& r = lut_[code];
      if (r < 0) {
        r = CompareResult(op_, CompareStrings(a_.vec->dict->values[code], b_.s));
      }
      return r == 1;
    }
    if (same_dict_ && (op_ == ExprOp::kEq || op_ == ExprOp::kNe)) {
      const bool eq = a_.vec->codes[ia] == b_.vec->codes[b_.Index(pos)];
      return op_ == ExprOp::kEq ? eq : !eq;
    }
    return CompareResult(op_, CompareStrings(a_.StringAt(pos), b_.StringAt(pos)));
  }

 private:
  ExprOp op_;
  const Operand& a_;
  const Operand& b_;
  bool same_dict_ = false;
  std::vector<int8_t> lut_;
};

// out (dense, n positions) validity = both operands non-NULL. Leaves the
// bitmap empty when no position is NULL.
void SetValidity(const Operand& a, const Operand& b, size_t n, Vector* out) {
  out->validity.clear();
  if (!a.may_be_null() && !b.may_be_null()) return;
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || b.IsNull(i)) {
      any_null = true;
    } else {
      bits[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  if (any_null) out->validity = std::move(bits);
}

void AllNull(size_t n, Vector* out) {
  out->Clear();
  out->type = ValueType::kNull;
  out->dict.reset();
  out->size = n;
}

// Two's-complement wrap: int64 +, - and * are computed in uint64_t, so an
// overflowing plan is defined (and matches what the row path returns).
int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}

void ArithKernel(ExprOp op, const Operand& a, const Operand& b, size_t n,
                 Vector* out) {
  if (a.type == ValueType::kNull || b.type == ValueType::kNull) {
    return AllNull(n, out);
  }
  out->Clear();
  out->dict.reset();
  out->size = n;
  const bool integral = a.type == ValueType::kInt64 &&
                        b.type == ValueType::kInt64 && op != ExprOp::kDiv;
  VisitNumeric(a, [&](auto x) {
    VisitNumeric(b, [&](auto y) {
      using X = decltype(x(0));
      using Y = decltype(y(0));
      if constexpr (std::is_same_v<X, int64_t> && std::is_same_v<Y, int64_t>) {
        if (integral) {
          out->type = ValueType::kInt64;
          out->i64.resize(n);
          int64_t* o = out->i64.data();
          switch (op) {
            case ExprOp::kAdd:
              for (size_t i = 0; i < n; ++i) o[i] = WrapAdd(x(i), y(i));
              return;
            case ExprOp::kSub:
              for (size_t i = 0; i < n; ++i) o[i] = WrapSub(x(i), y(i));
              return;
            default:
              for (size_t i = 0; i < n; ++i) o[i] = WrapMul(x(i), y(i));
              return;
          }
        }
      }
      out->type = ValueType::kDouble;
      out->f64.resize(n);
      double* o = out->f64.data();
      const auto dx = [&](size_t i) { return static_cast<double>(x(i)); };
      const auto dy = [&](size_t i) { return static_cast<double>(y(i)); };
      switch (op) {
        case ExprOp::kAdd:
          for (size_t i = 0; i < n; ++i) o[i] = dx(i) + dy(i);
          break;
        case ExprOp::kSub:
          for (size_t i = 0; i < n; ++i) o[i] = dx(i) - dy(i);
          break;
        case ExprOp::kMul:
          for (size_t i = 0; i < n; ++i) o[i] = dx(i) * dy(i);
          break;
        default:
          for (size_t i = 0; i < n; ++i) o[i] = dx(i) / dy(i);
          break;
      }
      for (size_t i = 0; i < n; ++i) o[i] = CanonicalNaN(o[i]);
    });
  });
  SetValidity(a, b, n, out);
}

void CompareKernel(ExprOp op, const Operand& a, const Operand& b, size_t n,
                   Vector* out) {
  if (a.type == ValueType::kNull || b.type == ValueType::kNull) {
    return AllNull(n, out);
  }
  out->Clear();
  out->dict.reset();
  out->type = ValueType::kInt64;
  out->size = n;
  out->i64.assign(n, 0);
  int64_t* o = out->i64.data();
  if (a.type == ValueType::kString || b.type == ValueType::kString) {
    XDBFT_CHECK(a.type == b.type) << "comparing string with numeric value";
    StringCompare cmp(op, a, b, n);
    for (size_t i = 0; i < n; ++i) {
      if (!a.IsNull(i) && !b.IsNull(i)) o[i] = cmp.Holds(i) ? 1 : 0;
    }
  } else {
    VisitNumeric(a, [&](auto x) {
      VisitNumeric(b, [&](auto y) {
        CompareLoop(op, x, y, n, [o](size_t i, bool h) { o[i] = h; });
      });
    });
  }
  SetValidity(a, b, n, out);
}

// The truthiness rule of EvalBool at dense position i.
bool Truthy(const Vector& v, size_t i) {
  if (v.IsNull(i)) return false;
  switch (v.type) {
    case ValueType::kInt64:
      return v.i64[i] != 0;
    case ValueType::kDouble:
      return v.f64[i] != 0.0;
    default:
      return true;
  }
}

void Gather(const Vector& src, const std::vector<int32_t>& sel, Vector* out) {
  out->Clear();
  out->type = src.type;
  out->dict = src.dict;
  AppendGathered(src, sel.data(), sel.size(), out);
}

void Broadcast(const Value& v, size_t n, Vector* out) {
  out->Clear();
  out->type = v.type();
  out->size = n;
  out->dict.reset();
  switch (v.type()) {
    case ValueType::kInt64:
      out->i64.assign(n, v.AsInt64());
      break;
    case ValueType::kDouble:
      out->f64.assign(n, v.AsDouble());
      break;
    case ValueType::kString: {
      auto dict = std::make_shared<Dictionary>();
      dict->values.push_back(v.AsString());
      out->dict = std::move(dict);
      out->codes.assign(n, 0);
      break;
    }
    case ValueType::kNull:
      break;
  }
}

}  // namespace

void Expr::EvalVector(const Batch& batch, const std::vector<int32_t>& sel,
                      Vector* out) const {
  const size_t n = sel.size();
  switch (op_) {
    case ExprOp::kColumn:
      Gather(*batch.columns[static_cast<size_t>(column_)], sel, out);
      return;
    case ExprOp::kLiteral:
      Broadcast(literal_, n, out);
      return;
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      // Short-circuit like the row path: the right child is only
      // evaluated at positions the left child does not decide.
      Vector left;
      children_[0]->EvalVector(batch, sel, &left);
      const bool is_and = op_ == ExprOp::kAnd;
      out->Clear();
      out->dict.reset();
      out->type = ValueType::kInt64;
      out->size = n;
      out->i64.assign(n, is_and ? 0 : 1);
      std::vector<int32_t> rest;      // positions needing the right child
      std::vector<size_t> rest_slot;  // their index in `out`
      for (size_t i = 0; i < n; ++i) {
        if (Truthy(left, i) == is_and) {
          rest.push_back(sel[i]);
          rest_slot.push_back(i);
        }
      }
      if (!rest.empty()) {
        Vector right;
        children_[1]->EvalVector(batch, rest, &right);
        for (size_t j = 0; j < rest.size(); ++j) {
          out->i64[rest_slot[j]] = Truthy(right, j) ? 1 : 0;
        }
      }
      return;
    }
    case ExprOp::kNot: {
      Vector child;
      children_[0]->EvalVector(batch, sel, &child);
      out->Clear();
      out->dict.reset();
      out->type = ValueType::kInt64;
      out->size = n;
      out->i64.resize(n);
      for (size_t i = 0; i < n; ++i) out->i64[i] = Truthy(child, i) ? 0 : 1;
      return;
    }
    default:
      break;
  }
  // Binary arithmetic or comparison. Column and literal operands are read
  // in place; only composite children are evaluated into dense vectors.
  Vector mat[2];
  Operand operand[2];
  for (size_t k = 0; k < 2; ++k) {
    const Expr& c = *children_[k];
    if (c.op_ == ExprOp::kColumn) {
      operand[k] = Operand::Column(
          *batch.columns[static_cast<size_t>(c.column_)], sel.data());
    } else if (c.op_ == ExprOp::kLiteral) {
      operand[k] = Operand::Literal(c.literal_);
    } else {
      c.EvalVector(batch, sel, &mat[k]);
      operand[k] = Operand::Dense(mat[k]);
    }
  }
  if (IsArith(op_)) {
    ArithKernel(op_, operand[0], operand[1], n, out);
  } else {
    CompareKernel(op_, operand[0], operand[1], n, out);
  }
}

void Expr::EvalSelection(const Batch& batch,
                         std::vector<int32_t>* sel) const {
  if (op_ == ExprOp::kAnd) {
    // Successive refinement — right child sees only left survivors,
    // exactly the row path's short-circuit.
    children_[0]->EvalSelection(batch, sel);
    children_[1]->EvalSelection(batch, sel);
    return;
  }
  if (op_ == ExprOp::kOr) {
    Vector left;
    children_[0]->EvalVector(batch, *sel, &left);
    std::vector<int32_t> rest;
    for (size_t i = 0; i < sel->size(); ++i) {
      if (!Truthy(left, i)) rest.push_back((*sel)[i]);
    }
    children_[1]->EvalSelection(batch, &rest);
    // Order-preserving union of left survivors and right survivors
    // (both are ordered subsequences of the incoming selection).
    std::vector<int32_t> merged;
    merged.reserve(sel->size());
    size_t ri = 0;
    for (size_t i = 0; i < sel->size(); ++i) {
      if (Truthy(left, i)) {
        merged.push_back((*sel)[i]);
      } else if (ri < rest.size() && rest[ri] == (*sel)[i]) {
        merged.push_back((*sel)[i]);
        ++ri;
      }
    }
    *sel = std::move(merged);
    return;
  }
  if (IsCompare(op_) && IsDirect(*children_[0]) && IsDirect(*children_[1])) {
    // Column/literal comparison: the dominant predicate shape. NULL
    // positions drop first, then a typed loop compacts `sel` in place
    // (each position is read before any write can reach it).
    Operand operand[2];
    for (size_t k = 0; k < 2; ++k) {
      const Expr& c = *children_[k];
      operand[k] = c.op_ == ExprOp::kColumn
                       ? Operand::Column(
                             *batch.columns[static_cast<size_t>(c.column_)],
                             nullptr)
                       : Operand::Literal(c.literal_);
    }
    if (operand[0].type == ValueType::kNull ||
        operand[1].type == ValueType::kNull) {
      sel->clear();
      return;
    }
    size_t kept = 0;
    if (operand[0].may_be_null() || operand[1].may_be_null()) {
      for (const int32_t r : *sel) {
        const size_t p = static_cast<size_t>(r);
        if ((operand[0].vec == nullptr || !operand[0].vec->IsNull(p)) &&
            (operand[1].vec == nullptr || !operand[1].vec->IsNull(p))) {
          (*sel)[kept++] = r;
        }
      }
      sel->resize(kept);
      kept = 0;
    }
    for (Operand& o : operand) o.sel = sel->data();
    const size_t n = sel->size();
    int32_t* s = sel->data();
    if (operand[0].type == ValueType::kString ||
        operand[1].type == ValueType::kString) {
      XDBFT_CHECK(operand[0].type == operand[1].type)
          << "comparing string with numeric value";
      StringCompare cmp(op_, operand[0], operand[1], n);
      for (size_t i = 0; i < n; ++i) {
        if (cmp.Holds(i)) s[kept++] = s[i];
      }
    } else {
      VisitNumeric(operand[0], [&](auto x) {
        VisitNumeric(operand[1], [&](auto y) {
          CompareLoop(op_, x, y, n, [&](size_t i, bool h) {
            s[kept] = s[i];
            kept += h ? 1 : 0;
          });
        });
      });
    }
    sel->resize(kept);
    return;
  }
  Vector vals;
  EvalVector(batch, *sel, &vals);
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    if (Truthy(vals, i)) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
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
