#include "exec/expr.h"

#include <gtest/gtest.h>

namespace xdbft::exec {
namespace {

const Row kRow = {Value(10), Value(2.5), Value("abc")};
const Schema kSchema = {{"a", ValueType::kInt64},
                        {"b", ValueType::kDouble},
                        {"c", ValueType::kString}};

TEST(ExprTest, ColumnAndLiteral) {
  EXPECT_EQ(Expr::Col(0)->Eval(kRow), Value(10));
  EXPECT_EQ(Expr::Lit(Value(7))->Eval(kRow), Value(7));
}

TEST(ExprTest, NamedColumnResolution) {
  auto c = Expr::Col(kSchema, "b");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->Eval(kRow), Value(2.5));
  EXPECT_FALSE(Expr::Col(kSchema, "nope").ok());
}

TEST(ExprTest, IntegerArithmeticStaysIntegral) {
  auto e = Expr::Col(0) + Expr::Lit(Value(5));
  EXPECT_EQ(e->Eval(kRow).type(), ValueType::kInt64);
  EXPECT_EQ(e->Eval(kRow).AsInt64(), 15);
  auto m = Expr::Col(0) * Expr::Lit(Value(3));
  EXPECT_EQ(m->Eval(kRow).AsInt64(), 30);
  EXPECT_EQ(*InferExprType(*e, kSchema), ValueType::kInt64);
}

TEST(ExprTest, DivisionIsDouble) {
  auto e = Expr::Col(0) / Expr::Lit(Value(4));
  EXPECT_EQ(e->Eval(kRow).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(e->Eval(kRow).AsDouble(), 2.5);
  EXPECT_EQ(*InferExprType(*e, kSchema), ValueType::kDouble);
}

TEST(ExprTest, MixedArithmeticIsDouble) {
  auto e = Expr::Col(0) - Expr::Col(1);
  EXPECT_DOUBLE_EQ(e->Eval(kRow).AsDouble(), 7.5);
  EXPECT_EQ(*InferExprType(*e, kSchema), ValueType::kDouble);
}

TEST(ExprTest, Comparisons) {
  EXPECT_EQ(Eq(Expr::Col(0), Expr::Lit(Value(10)))->Eval(kRow), Value(1));
  EXPECT_EQ(Ne(Expr::Col(0), Expr::Lit(Value(10)))->Eval(kRow), Value(0));
  EXPECT_EQ(Lt(Expr::Col(1), Expr::Lit(Value(3.0)))->Eval(kRow), Value(1));
  EXPECT_EQ(Le(Expr::Col(0), Expr::Lit(Value(9)))->Eval(kRow), Value(0));
  EXPECT_EQ(Gt(Expr::Col(2), Expr::Lit(Value("abb")))->Eval(kRow),
            Value(1));
  EXPECT_EQ(Ge(Expr::Col(0), Expr::Lit(Value(10)))->Eval(kRow), Value(1));
  EXPECT_EQ(*InferExprType(*Gt(Expr::Col(2), Expr::Lit(Value("abb"))),
                           kSchema),
            ValueType::kInt64);
  // An unknown (kNull) operand is never rejected.
  EXPECT_TRUE(InferExprType(*Eq(Expr::Lit(Value()), Expr::Col(2)), kSchema)
                  .ok());
}

TEST(ExprTest, NullPropagation) {
  auto e = Expr::Lit(Value()) + Expr::Lit(Value(1));
  EXPECT_TRUE(e->Eval(kRow).is_null());
  auto c = Eq(Expr::Lit(Value()), Expr::Lit(Value(1)));
  EXPECT_TRUE(c->Eval(kRow).is_null());
  EXPECT_FALSE(c->EvalBool(kRow));
}

TEST(ExprTest, BooleanConnectives) {
  auto t = Expr::Lit(Value(1));
  auto f = Expr::Lit(Value(0));
  EXPECT_TRUE(And(t, t)->EvalBool(kRow));
  EXPECT_FALSE(And(t, f)->EvalBool(kRow));
  EXPECT_TRUE(Or(f, t)->EvalBool(kRow));
  EXPECT_FALSE(Or(f, f)->EvalBool(kRow));
  EXPECT_FALSE(Not(t)->EvalBool(kRow));
  EXPECT_TRUE(Not(f)->EvalBool(kRow));
}

TEST(ExprTest, AndShortCircuits) {
  // The right side would crash on a string-numeric comparison if it were
  // evaluated; short-circuiting must skip it.
  auto bad = Lt(Expr::Col(2), Expr::Lit(Value(1)));
  auto e = And(Expr::Lit(Value(0)), bad);
  EXPECT_FALSE(e->EvalBool(kRow));
  auto o = Or(Expr::Lit(Value(1)), bad);
  EXPECT_TRUE(o->EvalBool(kRow));
}

TEST(ExprTest, ToStringRendersTree) {
  auto e = And(Gt(Expr::Col(0), Expr::Lit(Value(5))),
               Lt(Expr::Col(1), Expr::Lit(Value(3.0))));
  EXPECT_EQ(e->ToString(&kSchema), "((a > 5) AND (b < 3.0000))");
  EXPECT_EQ(e->ToString(), "(($0 > 5) AND ($1 < 3.0000))");
}

}  // namespace
}  // namespace xdbft::exec
