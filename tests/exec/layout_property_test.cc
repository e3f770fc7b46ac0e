// Randomized property test of the typed columnar layout, seeded like the
// validation harness (a fixed base seed per case, so a failure names its
// seed). Tables mix int64 (with INT64_MIN/MAX), double (NaN, -0.0, +-inf),
// string (empty, long, non-ASCII) and all-NULL columns, NULLs everywhere,
// at 0, 1, 1023, 1024 and 1025 rows and across chunk boundaries.
//   - Round trip: columns -> row view -> columns is BitIdenticalTables.
//   - Engines: random filter / project / aggregate / join / sort plans give
//     the row engine's exact result on the vectorized engine at 1, 2 and 8
//     threads and morsel sizes 1, 7 and 1024 (or the same error status).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/pipeline.h"

namespace xdbft::exec {
namespace {

constexpr uint64_t kBaseSeed = 0x7ab1e5eedULL;
constexpr size_t kRowCounts[] = {0, 1, 1023, 1024, 1025};

// Columns: 0 int64, 1 double, 2 string, 3 int64 (small domain, join and
// group key), 4 all NULL, 5 double (small domain with -0.0 and NaN).
Schema PropertySchema() {
  return {{"i", ValueType::kInt64},  {"d", ValueType::kDouble},
          {"s", ValueType::kString}, {"k", ValueType::kInt64},
          {"n", ValueType::kNull},   {"g", ValueType::kDouble}};
}

Value RandomInt(Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return Value(std::numeric_limits<int64_t>::max());
    case 1:
      return Value(std::numeric_limits<int64_t>::min());
    case 2:
      return Value(rng.NextInt(-5, 5));
    default:
      return Value(rng.NextInt(-1000000, 1000000));
  }
}

Value RandomDouble(Rng& rng) {
  switch (rng.NextBounded(8)) {
    case 0:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 1:
      return Value(-0.0);
    case 2:
      return Value(std::numeric_limits<double>::infinity());
    case 3:
      return Value(-std::numeric_limits<double>::infinity());
    case 4:
      return Value(0.0);
    default:
      return Value(rng.NextDouble() * 200.0 - 100.0);
  }
}

Value RandomString(Rng& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return Value("");
    case 1:
      return Value(std::string(200 + rng.NextBounded(100), 'x'));
    case 2:
      return Value("\xc3\xa9t\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac");  // UTF-8
    default:
      return Value("v" + std::to_string(rng.NextBounded(12)));
  }
}

Value MaybeNull(Rng& rng, Value v) {
  return rng.NextBounded(8) == 0 ? Value() : std::move(v);
}

std::vector<Row> RandomRows(Rng& rng, size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  const double small[] = {-0.0, 0.0, 1.5, 2.5,
                          std::numeric_limits<double>::quiet_NaN()};
  for (size_t r = 0; r < n; ++r) {
    rows.push_back({MaybeNull(rng, RandomInt(rng)),
                    MaybeNull(rng, RandomDouble(rng)),
                    MaybeNull(rng, RandomString(rng)),
                    MaybeNull(rng, Value(rng.NextInt(0, 9))),
                    Value(),
                    MaybeNull(rng, Value(small[rng.NextBounded(5)]))});
  }
  return rows;
}

// The same rows as several chunks (split at random points), so morsels
// and gathers cross chunk and dictionary boundaries.
Table Rechunked(Rng& rng, const std::vector<Row>& rows) {
  Table out;
  size_t at = 0;
  while (at < rows.size()) {
    const size_t take =
        std::min(rows.size() - at, size_t{1} + rng.NextBounded(700));
    const std::vector<Row> part(rows.begin() + static_cast<long>(at),
                                rows.begin() + static_cast<long>(at + take));
    const Table piece = Table::FromRows(PropertySchema(), part).ValueOrDie();
    if (out.schema.num_columns() == 0) out.schema = piece.schema;
    out.Append(piece);
    at += take;
  }
  if (out.schema.num_columns() == 0) out.schema = PropertySchema();
  return out;
}

TEST(LayoutPropertyTest, RowViewRoundTripIsBitIdentical) {
  for (const size_t n : kRowCounts) {
    Rng rng(kBaseSeed + n);
    const std::vector<Row> rows = RandomRows(rng, n);
    const Table t = Table::FromRows(PropertySchema(), rows).ValueOrDie();
    ASSERT_EQ(t.num_rows(), n);
    const std::vector<Row> back = t.ToRows();
    ASSERT_EQ(back.size(), n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < rows[r].size(); ++c) {
        ASSERT_TRUE(BitIdenticalValue(rows[r][c], back[r][c]))
            << "n=" << n << " row " << r << " col " << c;
      }
    }
    const Table again = Table::FromRows(t.schema, back).ValueOrDie();
    EXPECT_TRUE(BitIdenticalTables(t, again)) << "n=" << n;
    const Table chunked = Rechunked(rng, rows);
    EXPECT_TRUE(BitIdenticalTables(t, chunked)) << "n=" << n;
    if (n > 0) {
      Table flat;
      flat.schema = chunked.schema;
      flat.AppendChunk(chunked.Flatten());
      EXPECT_TRUE(BitIdenticalTables(t, flat)) << "n=" << n;
    }
  }
}

Expr::Ptr NumericCol(Rng& rng) {
  static const int kNumeric[] = {0, 1, 3, 5, 4};
  return Expr::Col(kNumeric[rng.NextBounded(5)]);
}

Expr::Ptr NumericLit(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return Expr::Lit(RandomInt(rng));
    case 1:
      return Expr::Lit(RandomDouble(rng));
    case 2:
      return Expr::Lit(Value());
    default:
      return Expr::Lit(Value(rng.NextInt(0, 9)));
  }
}

Expr::Ptr NumericExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.NextBounded(3) == 0) {
    return rng.NextBounded(3) == 0 ? NumericLit(rng) : NumericCol(rng);
  }
  static const ExprOp kArith[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                                  ExprOp::kDiv};
  return Expr::Make(kArith[rng.NextBounded(4)],
                    {NumericExpr(rng, depth - 1), NumericExpr(rng, depth - 1)});
}

Expr::Ptr Predicate(Rng& rng, int depth) {
  static const ExprOp kCmp[] = {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt,
                                ExprOp::kLe, ExprOp::kGt, ExprOp::kGe};
  const ExprOp cmp = kCmp[rng.NextBounded(6)];
  switch (depth == 0 ? rng.NextBounded(3) : rng.NextBounded(6)) {
    case 0:
      return Expr::Make(cmp, {NumericCol(rng), NumericLit(rng)});
    case 1:
      return Expr::Make(cmp, {Expr::Col(2), Expr::Lit(RandomString(rng))});
    case 2:
      return Expr::Make(cmp, {NumericExpr(rng, 2), NumericExpr(rng, 1)});
    case 3:
      return And(Predicate(rng, depth - 1), Predicate(rng, depth - 1));
    case 4:
      return Or(Predicate(rng, depth - 1), Predicate(rng, depth - 1));
    default:
      return Not(Predicate(rng, depth - 1));
  }
}

VecNodePtr RandomPlan(Rng& rng, const Table* t, const Table* dim) {
  VecNodePtr scan = VScan(t);
  if (rng.NextBounded(2) == 0) scan = VFilter(scan, Predicate(rng, 2));
  switch (rng.NextBounded(5)) {
    case 0:
      return VProject(scan,
                      {NumericExpr(rng, 3), Predicate(rng, 1), Expr::Col(2),
                       Expr::Col(4)},
                      {"x", "p", "s", "n"});
    case 1: {
      static const std::vector<std::vector<int>> kGroups = {
          {}, {3}, {2}, {5}, {0}, {1}, {4}, {2, 3}, {3, 5}, {2, 3, 5}};
      std::vector<AggSpec> aggs = {
          {AggFunc::kSum, NumericExpr(rng, 2), "sum"},
          {AggFunc::kAvg, NumericCol(rng), "avg"},
          {AggFunc::kCount, NumericExpr(rng, 1), "cnt"},
          {AggFunc::kCount, nullptr, "star"},
          {AggFunc::kMin, rng.NextBounded(2) ? Expr::Col(2) : NumericCol(rng),
           "min"},
          {AggFunc::kMax, NumericExpr(rng, 1), "max"}};
      return VHashAggregate(scan, kGroups[rng.NextBounded(kGroups.size())],
                            std::move(aggs));
    }
    case 2: {
      // Join keys: int64 = int64, string = string, int64 = double (numeric
      // equality across types), or two columns.
      static const std::vector<std::pair<std::vector<int>, std::vector<int>>>
          kKeys = {{{3}, {3}}, {{2}, {2}}, {{3}, {5}}, {{5}, {1}},
                   {{3, 2}, {3, 2}}, {{4}, {4}}};
      const auto& keys = kKeys[rng.NextBounded(kKeys.size())];
      return VHashJoin(VScan(dim), scan, keys.first, keys.second);
    }
    case 3: {
      std::vector<int> keys;
      std::vector<bool> asc;
      const size_t nkeys = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < nkeys; ++i) {
        keys.push_back(static_cast<int>(rng.NextBounded(6)));
        asc.push_back(rng.NextBounded(2) == 0);
      }
      const int64_t limit = rng.NextBounded(2) == 0
                                ? -1
                                : static_cast<int64_t>(rng.NextBounded(50));
      return VSort(scan, keys, asc, limit);
    }
    default:
      return VSort(VHashAggregate(scan, {2},
                                  {{AggFunc::kSum, Expr::Col(1), "s"},
                                   {AggFunc::kMax, Expr::Col(0), "m"}}),
                   {1, 0}, {false, true});
  }
}

TEST(LayoutPropertyTest, RandomPlansMatchTheRowEngine) {
  int plans_run = 0;
  for (const size_t n : kRowCounts) {
    Rng rng(kBaseSeed * 31 + n);
    const Table t = Rechunked(rng, RandomRows(rng, n));
    const Table dim = Table::FromRows(PropertySchema(), RandomRows(rng, 40))
                          .ValueOrDie();
    const int cases = n < 100 ? 12 : 30;
    for (int c = 0; c < cases; ++c) {
      const VecNodePtr plan = RandomPlan(rng, &t, &dim);
      auto op = ToOperator(plan);
      const Result<Table> row = Drain(op.get());
      for (const int threads : {1, 2, 8}) {
        for (const size_t morsel : {size_t{1}, size_t{7}, size_t{1024}}) {
          // Morsel size 1 over the largest inputs is slow and adds
          // nothing over 7; it runs on the small tables.
          if (morsel == 1 && n > 1024 && threads > 1) continue;
          VecExecOptions opts;
          opts.num_threads = threads;
          opts.morsel_rows = morsel;
          const Result<Table> vec = ExecuteVectorized(plan, opts);
          ASSERT_EQ(row.ok(), vec.ok())
              << "n=" << n << " case " << c << ": row " << row.status()
              << " vec " << vec.status();
          if (!row.ok()) {
            EXPECT_EQ(row.status().code(), vec.status().code());
            continue;
          }
          ASSERT_TRUE(BitIdenticalTables(*row, *vec))
              << "n=" << n << " case " << c << " threads=" << threads
              << " morsel=" << morsel;
          ++plans_run;
        }
      }
    }
  }
  EXPECT_GT(plans_run, 500);
}

}  // namespace
}  // namespace xdbft::exec
