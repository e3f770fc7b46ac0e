// Regression suite for operator NULL and reset semantics:
//   - SQL NULL handling in aggregates (COUNT(expr) skips NULLs, SUM/AVG
//     of zero non-NULL inputs is NULL, MIN/MAX ignore NULLs),
//   - re-Open idempotence: recovery replays call Open on an already-used
//     operator tree without an intervening Close; results must match a
//     fresh execution exactly (no duplicated hash-join build rows, no
//     stale aggregate state, no mid-stream scan positions),
//   - construction-time schema safety and InvalidArgument diagnostics
//     (null scan table).
#include <gtest/gtest.h>

#include "exec/operators.h"

namespace xdbft::exec {
namespace {

// (id, val) with val NULL on every third row.
Table TableWithNulls(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(i), i % 3 == 0 ? Value() : Value(i * 1.5)});
  }
  return Table::FromRows(
             {{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, rows)
      .ValueOrDie();
}

Table AllNullVals(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value(i % 2), Value()});
  return Table::FromRows(
             {{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, rows)
      .ValueOrDie();
}

// ---- NULL semantics in aggregates ----

TEST(AggNullSemanticsTest, CountExprSkipsNullArguments) {
  Table t = TableWithNulls(9);  // rows 0,3,6 have NULL val
  auto op = MakeHashAggregate(
      MakeScan(&t), {},
      {{AggFunc::kCount, Expr::Col(1), "c"},
       {AggFunc::kCount, nullptr, "star"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetValue(0, 0), Value(int64_t{6}));  // COUNT(val): NULLs skipped
  EXPECT_EQ(r->GetValue(0, 1), Value(int64_t{9}));  // COUNT(*): all rows
}

TEST(AggNullSemanticsTest, SumOfZeroNonNullInputsIsNull) {
  Table t = AllNullVals(4);
  auto op = MakeHashAggregate(
      MakeScan(&t), {},
      {{AggFunc::kSum, Expr::Col(1), "s"},
       {AggFunc::kAvg, Expr::Col(1), "a"},
       {AggFunc::kMin, Expr::Col(1), "lo"},
       {AggFunc::kMax, Expr::Col(1), "hi"},
       {AggFunc::kCount, Expr::Col(1), "c"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_TRUE(r->GetValue(0, 0).is_null());  // SUM, not 0
  EXPECT_TRUE(r->GetValue(0, 1).is_null());  // AVG, not NaN
  EXPECT_TRUE(r->GetValue(0, 2).is_null());  // MIN
  EXPECT_TRUE(r->GetValue(0, 3).is_null());  // MAX
  EXPECT_EQ(r->GetValue(0, 4), Value(int64_t{0}));  // COUNT(expr) is 0
}

TEST(AggNullSemanticsTest, SumSkipsNullsButKeepsNonNull) {
  Table t = TableWithNulls(6);  // non-NULL vals: 1.5, 3.0, 6.0, 7.5
  auto op = MakeHashAggregate(MakeScan(&t), {},
                              {{AggFunc::kSum, Expr::Col(1), "s"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetValue(0, 0), Value(18.0));
}

TEST(AggNullSemanticsTest, PerGroupNullHandlingIsIndependent) {
  // Group 0 has only NULL vals, group 1 only non-NULL.
  Table t = Table::FromRows(
                {{"g", ValueType::kInt64}, {"val", ValueType::kDouble}},
                {{Value(0), Value()},
                 {Value(1), Value(2.0)},
                 {Value(0), Value()},
                 {Value(1), Value(3.0)}})
                .ValueOrDie();
  auto op = MakeHashAggregate(MakeScan(&t), {0},
                              {{AggFunc::kSum, Expr::Col(1), "s"}});
  auto r = Drain(op.get());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_TRUE(r->GetValue(0, 1).is_null());  // group 0 (first occurrence)
  EXPECT_EQ(r->GetValue(1, 1), Value(5.0));  // group 1
}

// ---- re-Open idempotence ----

// Drains `op` twice via explicit Open calls with no Close in between
// (and once after a partial first read) and checks both results against
// a reference drain.
void ExpectReOpenIdempotent(Operator* op, const Table& expect) {
  // Full drain, then re-Open without Close.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(op->Open().ok()) << "round " << round;
    std::vector<Row> got;
    Row row;
    while (true) {
      auto more = op->Next(&row);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      got.push_back(row);
    }
    ASSERT_EQ(got.size(), expect.num_rows()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect.GetRow(i)) << "round " << round;
    }
  }
  // Abandon a partial read, re-Open, and expect a full result again.
  ASSERT_TRUE(op->Open().ok());
  Row row;
  if (expect.num_rows() > 0) {
    auto more = op->Next(&row);
    ASSERT_TRUE(more.ok() && *more);
  }
  ASSERT_TRUE(op->Open().ok());
  size_t n = 0;
  while (true) {
    auto more = op->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++n;
  }
  EXPECT_EQ(n, expect.num_rows());
  op->Close();
}

Table Numbers(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value(i), Value(i * 1.5)});
  return Table::FromRows(
             {{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, rows)
      .ValueOrDie();
}

TEST(ReOpenTest, Scan) {
  Table t = Numbers(5);
  auto op = MakeScan(&t);
  ExpectReOpenIdempotent(op.get(), t);
}

TEST(ReOpenTest, FilterProject) {
  Table t = Numbers(10);
  auto op = MakeProject(
      MakeFilter(MakeScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(5)))),
      {Expr::Col(0) + Expr::Lit(Value(100))}, {"plus"});
  auto ref = Drain(MakeProject(
                       MakeFilter(MakeScan(&t),
                                  Lt(Expr::Col(0), Expr::Lit(Value(5)))),
                       {Expr::Col(0) + Expr::Lit(Value(100))}, {"plus"})
                       .get());
  ASSERT_TRUE(ref.ok());
  ExpectReOpenIdempotent(op.get(), *ref);
}

TEST(ReOpenTest, HashJoinDoesNotDuplicateBuildRows) {
  Table build = Numbers(4);
  Table probe = Numbers(6);
  auto mk = [&]() {
    return MakeHashJoin(MakeScan(&build), MakeScan(&probe), {0}, {0});
  };
  auto ref = Drain(mk().get());
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->num_rows(), 4u);
  auto op = mk();
  ExpectReOpenIdempotent(op.get(), *ref);
}

TEST(ReOpenTest, HashAggregateClearsState) {
  Table t = Numbers(9);
  auto mk = [&]() {
    return MakeHashAggregate(
        MakeScan(&t), {},
        {{AggFunc::kSum, Expr::Col(1), "s"},
         {AggFunc::kCount, nullptr, "c"}});
  };
  auto ref = Drain(mk().get());
  ASSERT_TRUE(ref.ok());
  auto op = mk();
  ExpectReOpenIdempotent(op.get(), *ref);
}

TEST(ReOpenTest, SortTopK) {
  Table a = Numbers(12);
  auto mk = [&]() { return MakeSort(MakeScan(&a), {0}, {false}, 7); };
  auto ref = Drain(mk().get());
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->num_rows(), 7u);
  auto op = mk();
  ExpectReOpenIdempotent(op.get(), *ref);
}

// ---- construction / Open diagnostics ----

TEST(OperatorDiagnosticsTest, ScanNullTableSchemaIsSafe) {
  auto op = MakeScan(nullptr);
  // schema() must not dereference the missing table (parents call it at
  // construction time)...
  EXPECT_EQ(op->schema().num_columns(), 0u);
  // ...and Open must diagnose it.
  const Status s = op->Open();
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
}

}  // namespace
}  // namespace xdbft::exec
