#include "exec/operators.h"

#include <gtest/gtest.h>

namespace xdbft::exec {
namespace {

Table NumbersTable(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value(i), Value(i * 1.5)});
  return Table::FromRows(
             {{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, rows)
      .ValueOrDie();
}

TEST(ScanTest, ProducesAllRows) {
  Table t = NumbersTable(10);
  auto op = MakeScan(&t);
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->num_rows(), 10u);
  EXPECT_EQ(r->schema.num_columns(), 2u);
}

TEST(ScanTest, RejectsNullTable) {
  auto op = MakeScan(nullptr);
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(FilterTest, KeepsMatchingRows) {
  Table t = NumbersTable(10);
  auto op = MakeFilter(MakeScan(&t),
                       Ge(Expr::Col(0), Expr::Lit(Value(7))));
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
}

TEST(FilterTest, RejectsNullPredicate) {
  Table t = NumbersTable(3);
  auto op = MakeFilter(MakeScan(&t), nullptr);
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(ProjectTest, ComputesExpressions) {
  Table t = NumbersTable(3);
  auto op = MakeProject(MakeScan(&t),
                        {Expr::Col(0) + Expr::Lit(Value(100))}, {"plus"});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->schema.column(0).name, "plus");
  EXPECT_EQ(r->schema.column(0).type, ValueType::kInt64);  // inferred
  EXPECT_EQ(r->GetValue(2, 0), Value(102));
}

TEST(ProjectTest, RejectsSizeMismatch) {
  Table t = NumbersTable(3);
  auto op = MakeProject(MakeScan(&t), {Expr::Col(0)}, {"a", "b"});
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(HashJoinTest, InnerEquiJoin) {
  Table left = Table::FromRows(
      {{"k", ValueType::kInt64}, {"l", ValueType::kString}},
      {{Value(1), Value("a")}, {Value(2), Value("b")}}).ValueOrDie();
  Table right = Table::FromRows(
      {{"k2", ValueType::kInt64}, {"r", ValueType::kString}},
      {{Value(2), Value("x")},
                {Value(2), Value("y")},
                {Value(3), Value("z")}}).ValueOrDie();
  auto op = MakeHashJoin(MakeScan(&left), MakeScan(&right), {0}, {0});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  // Only k=2 matches, twice (probe side is `right`).
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->schema.num_columns(), 4u);
  for (const auto& row : r->ToRows()) {
    EXPECT_EQ(row[0], Value(2));  // probe columns first
    EXPECT_EQ(row[3], Value("b"));
  }
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table left = Table::FromRows(
      {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}},
      {{Value(1), Value(2)}, {Value(1), Value(3)}}).ValueOrDie();
  Table right = left;
  auto op = MakeHashJoin(MakeScan(&left), MakeScan(&right), {0, 1}, {0, 1});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);  // exact matches only
}

TEST(HashJoinTest, DuplicateNamesGetPrefixed) {
  Table t = NumbersTable(2);
  auto op = MakeHashJoin(MakeScan(&t), MakeScan(&t), {0}, {0});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema.column(2).name, "right.id");
}

TEST(HashJoinTest, RejectsEmptyKeys) {
  Table t = NumbersTable(2);
  auto op = MakeHashJoin(MakeScan(&t), MakeScan(&t), {}, {});
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(HashAggregateTest, GroupBySums) {
  Table t = Table::FromRows(
      {{"g", ValueType::kInt64}, {"v", ValueType::kInt64}},
      {{Value(1), Value(10)},
            {Value(2), Value(20)},
            {Value(1), Value(5)}}).ValueOrDie();
  auto op = MakeHashAggregate(
      MakeScan(&t), {0},
      {{AggFunc::kSum, Expr::Col(1), "s"},
       {AggFunc::kCount, nullptr, "c"},
       {AggFunc::kMin, Expr::Col(1), "mn"},
       {AggFunc::kMax, Expr::Col(1), "mx"},
       {AggFunc::kAvg, Expr::Col(1), "av"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 2u);
  for (const auto& row : r->ToRows()) {
    if (row[0] == Value(1)) {
      EXPECT_DOUBLE_EQ(row[1].AsDouble(), 15.0);
      EXPECT_EQ(row[2], Value(2));
      EXPECT_EQ(row[3], Value(5));
      EXPECT_EQ(row[4], Value(10));
      EXPECT_DOUBLE_EQ(row[5].AsDouble(), 7.5);
    } else {
      EXPECT_DOUBLE_EQ(row[1].AsDouble(), 20.0);
    }
  }
}

TEST(HashAggregateTest, GlobalAggregateOnEmptyInput) {
  Table t;
  t.schema = {{"v", ValueType::kInt64}};
  auto op = MakeHashAggregate(MakeScan(&t), {},
                              {{AggFunc::kCount, nullptr, "c"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetValue(0, 0), Value(int64_t{0}));
}

TEST(HashAggregateTest, RejectsMissingArgument) {
  Table t = NumbersTable(2);
  auto op = MakeHashAggregate(MakeScan(&t), {},
                              {{AggFunc::kSum, nullptr, "s"}});
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(SortTest, SortsAscendingAndDescending) {
  Table t = Table::FromRows(
      {{"v", ValueType::kInt64}},
      {{Value(3)}, {Value(1)}, {Value(2)}}).ValueOrDie();
  auto asc = MakeSort(MakeScan(&t), {0}, {true});
  auto r = Drain(asc.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0), Value(1));
  EXPECT_EQ(r->GetValue(2, 0), Value(3));
  auto desc = MakeSort(MakeScan(&t), {0}, {false});
  auto r2 = Drain(desc.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->GetValue(0, 0), Value(3));
}

TEST(SortTest, TopKLimit) {
  Table t = NumbersTable(100);
  auto op = MakeSort(MakeScan(&t), {0}, {false}, 5);
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 5u);
  EXPECT_EQ(r->GetValue(0, 0), Value(99));
  EXPECT_EQ(r->GetValue(4, 0), Value(95));
}

TEST(SortTest, MultiKeyWithTies) {
  Table t = Table::FromRows(
      {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}},
      {{Value(1), Value(2)}, {Value(1), Value(1)}, {Value(0), Value(9)}})
      .ValueOrDie();
  auto op = MakeSort(MakeScan(&t), {0, 1}, {true, true});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 1), Value(9));
  EXPECT_EQ(r->GetValue(1, 1), Value(1));
  EXPECT_EQ(r->GetValue(2, 1), Value(2));
}

TEST(SortTest, RejectsDirectionMismatch) {
  Table t = NumbersTable(2);
  auto op = MakeSort(MakeScan(&t), {0}, {true, false});
  EXPECT_FALSE(Drain(op.get()).ok());
}

TEST(PipelineTest, ComposedQuery) {
  // SELECT g, SUM(v) FROM t WHERE v >= 2 GROUP BY g ORDER BY s DESC
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({Value(i % 3), Value(i)});
  const Table t = Table::FromRows(
      {{"g", ValueType::kInt64}, {"v", ValueType::kInt64}}, rows)
      .ValueOrDie();
  auto op = MakeFilter(MakeScan(&t), Ge(Expr::Col(1), Expr::Lit(Value(2))));
  op = MakeHashAggregate(std::move(op), {0},
                         {{AggFunc::kSum, Expr::Col(1), "s"}});
  op = MakeSort(std::move(op), {1}, {false});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 3u);
  // Group 0: 3+6+..+18=63; group 1: 4+7+..+19=69; group 2: 2+5+..+17=57.
  EXPECT_DOUBLE_EQ(r->GetValue(0, 1).AsDouble(), 69.0);
  EXPECT_DOUBLE_EQ(r->GetValue(1, 1).AsDouble(), 63.0);
  EXPECT_DOUBLE_EQ(r->GetValue(2, 1).AsDouble(), 57.0);
}

}  // namespace
}  // namespace xdbft::exec
