// Typed construction and typed arithmetic of the columnar table layout:
//   - every cell is checked against its column's declared type when a
//     table is built; a kNull declaration takes the type of its first
//     non-NULL cell, mixed types are InvalidArgument, and a plan that is
//     ill-typed over the resolved schema returns a Status on both engines
//     (it used to abort in Value::Compare),
//   - int64 +, - and * wrap in two's complement on both engines (defined
//     behaviour, so the UBSan build runs these plans clean),
//   - chunks built by different builders (an all-NULL string chunk next
//     to an encoded one) gather, partition, sort and aggregate as one
//     table built row by row does.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "exec/pipeline.h"

namespace xdbft::exec {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

void ExpectBothEnginesInvalid(const VecNodePtr& plan) {
  auto op = ToOperator(plan);
  auto row = Drain(op.get());
  ASSERT_FALSE(row.ok());
  EXPECT_TRUE(row.status().IsInvalidArgument()) << row.status();
  auto vec = ExecuteVectorized(plan);
  ASSERT_FALSE(vec.ok());
  EXPECT_TRUE(vec.status().IsInvalidArgument()) << vec.status();
}

TEST(TypedTableTest, NullDeclarationTakesFirstNonNullType) {
  auto t = Table::FromRows({{"s", ValueType::kNull}},
                           {{Value()}, {Value("a")}, {Value("b")}});
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->schema.column(0).type, ValueType::kString);
  EXPECT_TRUE(t->GetValue(0, 0).is_null());
  EXPECT_EQ(t->GetValue(2, 0), Value("b"));

  auto all_null = Table::FromRows({{"n", ValueType::kNull}},
                                  {{Value()}, {Value()}});
  ASSERT_TRUE(all_null.ok());
  EXPECT_EQ(all_null->schema.column(0).type, ValueType::kNull);
}

TEST(TypedTableTest, MixedCellTypesAreInvalidArgument) {
  const auto mixed = Table::FromRows({{"x", ValueType::kNull}},
                                     {{Value(int64_t{1})}, {Value("a")}});
  ASSERT_FALSE(mixed.ok());
  EXPECT_TRUE(mixed.status().IsInvalidArgument()) << mixed.status();

  // int64 5 is not a DOUBLE cell: declared types are exact.
  const auto wrong = Table::FromRows({{"d", ValueType::kDouble}},
                                     {{Value(1.5)}, {Value(int64_t{5})}});
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsInvalidArgument()) << wrong.status();

  const auto short_row = Table::FromRows(
      {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}},
      {{Value(int64_t{1})}});
  EXPECT_FALSE(short_row.ok());
}

TEST(TypedTableTest, StringsInANullColumnFilteredAsNumberIsAStatus) {
  // The column is declared kNull but holds strings; `s < 5` compares a
  // string with a number. Both engines return InvalidArgument.
  const Table t = Table::FromRows({{"s", ValueType::kNull}},
                                  {{Value("x")}, {Value()}, {Value("y")}})
                      .ValueOrDie();
  ExpectBothEnginesInvalid(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{5})))));
  ExpectBothEnginesInvalid(
      VProject(VScan(&t), {Expr::Col(0) * Expr::Lit(Value(2.0))}, {"x"}));
}

TEST(TypedTableTest, Int64ArithmeticWrapsOnBothEngines) {
  const Table t =
      Table::FromRows({{"i", ValueType::kInt64}},
                      {{Value(kMax)}, {Value(kMin)}, {Value(int64_t{-1})},
                       {Value(int64_t{0})}, {Value()}, {Value(int64_t{3})}})
          .ValueOrDie();
  const auto col = Expr::Col(0);
  const auto plan = VProject(
      VScan(&t),
      {Expr::Lit(Value(kMax)) + col, col - Expr::Lit(Value(kMin)),
       col * col, col * Expr::Lit(Value(kMax)), col + col,
       Expr::Lit(Value(kMin)) - col},
      {"max_plus", "minus_min", "square", "times_max", "twice", "min_minus"});
  auto op = ToOperator(plan);
  auto row = Drain(op.get());
  ASSERT_TRUE(row.ok()) << row.status();
  for (const int threads : {1, 2, 8}) {
    for (const size_t morsel : {size_t{1}, size_t{7}, size_t{1024}}) {
      VecExecOptions opts;
      opts.num_threads = threads;
      opts.morsel_rows = morsel;
      auto vec = ExecuteVectorized(plan, opts);
      ASSERT_TRUE(vec.ok()) << vec.status();
      EXPECT_TRUE(BitIdenticalTables(*row, *vec))
          << "threads=" << threads << " morsel=" << morsel;
    }
  }
  // INT64_MAX + INT64_MAX wraps to -2; INT64_MAX + 1 to INT64_MIN.
  EXPECT_EQ(row->GetValue(0, 0), Value(int64_t{-2}));
  EXPECT_EQ(row->GetValue(5, 0).AsInt64(), kMin + 2);
  EXPECT_EQ(row->GetValue(2, 0).AsInt64(), kMax - 1);
  EXPECT_EQ(row->GetValue(1, 1).AsInt64(), 0);  // INT64_MIN - INT64_MIN
  EXPECT_EQ(row->GetValue(0, 4).AsInt64(), -2);
  EXPECT_EQ(row->GetValue(1, 2).AsInt64(), 0);   // INT64_MIN squared
  EXPECT_TRUE(row->GetValue(4, 3).is_null());    // NULL propagates
  EXPECT_EQ(row->GetValue(3, 5).AsInt64(), kMin);
}

TEST(TypedTableTest, AllNullStringChunkMixesWithEncodedChunks) {
  // An all-NULL string chunk has an empty dictionary; gathering it after
  // an encoded chunk (or before one) re-encodes through a translation
  // table that NULL cells must not index.
  const Schema schema({{"s", ValueType::kString}, {"k", ValueType::kInt64}});
  const Table strings =
      Table::FromRows(schema, {{Value("x"), Value(int64_t{1})},
                               {Value("y"), Value(int64_t{2})},
                               {Value(), Value(int64_t{3})},
                               {Value("x"), Value(int64_t{4})}})
          .ValueOrDie();
  const Table nulls = Table::FromRows(schema, {{Value(), Value(int64_t{5})},
                                               {Value(), Value(int64_t{6})}})
                          .ValueOrDie();
  for (const bool nulls_first : {false, true}) {
    SCOPED_TRACE(nulls_first ? "nulls first" : "strings first");
    Table t = nulls_first ? nulls : strings;
    t.Append(nulls_first ? strings : nulls);
    ASSERT_EQ(t.chunks().size(), 2u);
    const Table expected = Table::FromRows(schema, t.ToRows()).ValueOrDie();

    Table flat;
    flat.schema = schema;
    flat.AppendChunk(t.Flatten());
    EXPECT_TRUE(BitIdenticalTables(flat, expected));

    auto parts = HashPartition(t, 0, 3);
    auto want_parts = HashPartition(expected, 0, 3);
    ASSERT_TRUE(parts.ok() && want_parts.ok());
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(BitIdenticalTables((*parts)[p], (*want_parts)[p]))
          << "partition " << p;
    }

    const auto scan = VScan(&t);
    const std::vector<VecNodePtr> plans = {
        VFilter(scan, Gt(Expr::Col(1), Expr::Lit(Value(int64_t{0})))),
        VSort(scan, {0, 1}, {false, true}),
        VHashAggregate(scan, {0}, {{AggFunc::kSum, Expr::Col(1), "sum"}}),
        VHashJoin(scan, scan, {0}, {0}),
    };
    for (const VecNodePtr& plan : plans) {
      auto op = ToOperator(plan);
      auto row = Drain(op.get());
      ASSERT_TRUE(row.ok()) << row.status();
      for (const int threads : {1, 2, 8}) {
        for (const size_t morsel : {size_t{1}, size_t{7}, size_t{1024}}) {
          VecExecOptions opts;
          opts.num_threads = threads;
          opts.morsel_rows = morsel;
          auto vec = ExecuteVectorized(plan, opts);
          ASSERT_TRUE(vec.ok()) << vec.status();
          EXPECT_TRUE(BitIdenticalTables(*row, *vec))
              << "op=" << static_cast<int>(plan->op)
              << " threads=" << threads << " morsel=" << morsel;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xdbft::exec
