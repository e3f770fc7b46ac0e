#include "exec/value.h"

#include <gtest/gtest.h>

namespace xdbft::exec {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(7).type(), ValueType::kInt64);
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_EQ(Value(1.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("xy")).AsString(), "xy");
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
}

TEST(ValueTest, NumericComparisonCrossType) {
  EXPECT_EQ(Value(2).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(1).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(2)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value().Compare(Value(0)), 0);
  EXPECT_GT(Value("a").Compare(Value()), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, EqualityOperators) {
  EXPECT_TRUE(Value(5) == Value(5));
  EXPECT_TRUE(Value(5) != Value(6));
  EXPECT_TRUE(Value(1) < Value(2));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(42).Hash(), Value(42.0).Hash());
  EXPECT_EQ(Value("k").Hash(), Value(std::string("k")).Hash());
  EXPECT_NE(Value(1).Hash(), Value(2).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(7).ToString(), "7");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(1.5).ToString(), "1.5000");
}

TEST(RowKeyTest, ExtractAndHash) {
  Row row = {Value(1), Value("a"), Value(2.5)};
  const Row key = ExtractKey(row, {2, 0});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], Value(2.5));
  EXPECT_EQ(key[1], Value(1));
}

TEST(RowKeyTest, RowEqAndHashAgree) {
  Row a = {Value(1), Value("x")};
  Row b = {Value(int64_t{1}), Value("x")};
  Row c = {Value(1), Value("y")};
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_FALSE(RowEq{}(a, c));
  EXPECT_EQ(RowHash{}(a), RowHash{}(b));
}

}  // namespace
}  // namespace xdbft::exec
