// Tests of the morsel-driven vectorized engine (exec/pipeline.h) against
// the row-engine baseline: chunk views, vectorized expression evaluation
// (EvalVector / EvalSelection) versus per-row Eval, and bit-identical
// plan execution across every VecOp and several thread counts. Bit
// identity — not approximate equality — is the contract the FT executor's
// determinism check relies on: the ordered serial sink accumulates
// floating-point state in exact input-row order no matter how many
// workers run the morsels.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/pipeline.h"

namespace xdbft::exec {
namespace {

Table Numbers(int n, int key_mod = 5) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Value disc;  // NULL every 7th row
    if (i % 7 != 0) disc = Value((i % 10) * 0.01);
    rows.push_back({Value(i % key_mod), Value(i * 1.25), std::move(disc)});
  }
  return Table::FromRows({{"k", ValueType::kInt64},
                          {"price", ValueType::kDouble},
                          {"disc", ValueType::kDouble}},
                         rows)
      .ValueOrDie();
}

Result<Table> RunRow(const VecNodePtr& plan) {
  auto op = ToOperator(plan);
  return Drain(op.get());
}

void ExpectBitIdentical(const VecNodePtr& plan,
                        std::vector<int> thread_counts = {1, 2, 8}) {
  auto row = RunRow(plan);
  ASSERT_TRUE(row.ok()) << row.status();
  for (const int threads : thread_counts) {
    VecExecOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 64;  // many morsels even on small inputs
    auto vec = ExecuteVectorized(plan, opts);
    ASSERT_TRUE(vec.ok()) << vec.status() << " threads=" << threads;
    EXPECT_TRUE(BitIdenticalTables(*row, *vec)) << "threads=" << threads;
  }
}

// ---- chunk views ----

TEST(ChunkViewTest, BatchSharesTheChunksColumns) {
  const Table t = Numbers(100);
  const ChunkPtr chunk = t.Flatten();
  const Batch b = Batch::Of(chunk);
  ASSERT_EQ(b.num_columns(), 3u);
  for (size_t c = 0; c < 3; ++c) EXPECT_EQ(b.columns[c], &chunk->columns[c]);
  // The NULL discounts live in a validity bitmap, the keys have none.
  EXPECT_FALSE(chunk->columns[0].has_nulls());
  EXPECT_TRUE(chunk->columns[2].IsNull(0));
  EXPECT_FALSE(chunk->columns[2].IsNull(1));
}

TEST(ChunkViewTest, CopiesAndAppendsShareChunks) {
  const Table t = Numbers(10);
  Table copy = t;
  copy.Append(t);
  ASSERT_EQ(copy.num_rows(), 20u);
  ASSERT_EQ(copy.chunks().size(), 2u);
  EXPECT_EQ(copy.chunks()[0].get(), t.chunks()[0].get());
  EXPECT_EQ(copy.chunks()[1].get(), t.chunks()[0].get());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(copy.GetRow(10 + i), t.GetRow(i));
}

// ---- vectorized expression evaluation vs per-row Eval ----

TEST(VectorizedExprTest, EvalVectorMatchesRowEval) {
  Table t = Numbers(200);
  const Batch b = Batch::Of(t.Flatten());
  std::vector<int32_t> sel;
  for (int32_t i = 0; i < 200; i += 3) sel.push_back(i);  // sparse sel

  const std::vector<Expr::Ptr> exprs = {
      Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),  // nulls flow
      Expr::Col(0) + Expr::Lit(Value(int64_t{7})),
      Lt(Expr::Col(1), Expr::Lit(Value(100.0))),
      Eq(Expr::Col(0), Expr::Col(0)),
      Or(Gt(Expr::Col(2), Expr::Lit(Value(0.05))),
         Lt(Expr::Col(0), Expr::Lit(Value(int64_t{2})))),
      Not(Expr::Col(2)),
      Expr::Col(0) / Expr::Lit(Value(int64_t{0})),
  };
  for (const auto& e : exprs) {
    Vector out;
    e->EvalVector(b, sel, &out);
    ASSERT_EQ(out.size, sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      const Value expect = e->Eval(t.GetRow(static_cast<size_t>(sel[i])));
      EXPECT_TRUE(BitIdenticalValue(expect, out.GetValue(i)))
          << "expr=" << e->ToString() << " pos=" << sel[i];
    }
  }
}

TEST(VectorizedExprTest, EvalSelectionMatchesEvalBool) {
  Table t = Numbers(150);
  const Batch b = Batch::Of(t.Flatten());
  const std::vector<Expr::Ptr> preds = {
      Lt(Expr::Col(0), Expr::Lit(Value(int64_t{3}))),
      Gt(Expr::Col(2), Expr::Lit(Value(0.05))),  // NULL disc -> dropped
      Eq(Expr::Col(0), Expr::Lit(Value(int64_t{1}))),
      Le(Expr::Col(1), Expr::Col(0)),
  };
  for (const auto& p : preds) {
    std::vector<int32_t> sel(t.num_rows());
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<int32_t>(i);
    p->EvalSelection(b, &sel);
    std::vector<int32_t> expect;
    for (size_t i = 0; i < t.num_rows(); ++i) {
      if (p->EvalBool(t.GetRow(i))) expect.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(sel, expect) << p->ToString();
  }
}

TEST(VectorizedExprTest, EvalSelectionOverRowRangeMatchesEvalBool) {
  // A morsel is a row range of a chunk: the selection starts as the
  // range's row indices and keeps them (not range offsets).
  Table t = Numbers(120);
  const Batch b = Batch::Of(t.Flatten());
  const std::vector<Expr::Ptr> preds = {
      // Direct-operand comparison: the in-place typed loop.
      Lt(Expr::Col(0), Expr::Lit(Value(int64_t{2}))),
      // Composite operand: evaluated, then filtered by truthiness.
      Gt(Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),
         Expr::Lit(Value(20.0))),
  };
  for (const auto& p : preds) {
    const size_t lo = 13, hi = 97;
    std::vector<int32_t> sel;
    for (size_t i = lo; i < hi; ++i) sel.push_back(static_cast<int32_t>(i));
    p->EvalSelection(b, &sel);
    std::vector<int32_t> expect;
    for (size_t i = lo; i < hi; ++i) {
      if (p->EvalBool(t.GetRow(i))) expect.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(sel, expect) << p->ToString();
  }
}

// ---- plan execution: every VecOp, row vs vectorized, multi-threaded ----

TEST(VectorizedPlanTest, ScanFilterProject) {
  Table t = Numbers(1000);
  ExpectBitIdentical(VProject(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{3})))),
      {Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2))}, {"rev"}));
}

TEST(VectorizedPlanTest, FusedScanFilterCompositePredicate) {
  // A predicate whose operands are not column/literal exercises the
  // fused scan-filter's EvalBool fallback.
  Table t = Numbers(500);
  ExpectBitIdentical(VFilter(
      VScan(&t), Gt(Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)),
                    Expr::Lit(Value(50.0)))));
}

TEST(VectorizedPlanTest, FilterAboveProjectUsesSelectionPath) {
  // The non-fused filter (its input is a project, not a scan) runs as a
  // selection-vector step.
  Table t = Numbers(800);
  ExpectBitIdentical(VFilter(
      VProject(VScan(&t),
               {Expr::Col(0), Expr::Col(1) + Expr::Lit(Value(1.0))},
               {"k", "p1"}),
      Gt(Expr::Col(1), Expr::Lit(Value(100.0)))));
}

TEST(VectorizedPlanTest, HashAggregate) {
  Table t = Numbers(2000, 37);
  ExpectBitIdentical(VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{25})))),
      {0},
      {{AggFunc::kSum,
        Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2)), "rev"},
       {AggFunc::kCount, Expr::Col(2), "c_disc"},
       {AggFunc::kCount, nullptr, "c"},
       {AggFunc::kMin, Expr::Col(1), "lo"},
       {AggFunc::kMax, Expr::Col(1), "hi"},
       {AggFunc::kAvg, Expr::Col(1), "avg"}}));
}

TEST(VectorizedPlanTest, GlobalAggregateOverEmptyInput) {
  Table t = Numbers(100);
  // Filter nothing through; global aggregate must still emit one row
  // (NULL sum, zero count) in both engines.
  const auto plan = VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{-1})))),
      {}, {{AggFunc::kSum, Expr::Col(1), "s"},
           {AggFunc::kCount, nullptr, "c"}});
  ExpectBitIdentical(plan);
  auto r = RunRow(plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_TRUE(r->GetValue(0, 0).is_null());
}

TEST(VectorizedPlanTest, AggregateIntKeyDemotion) {
  // int64 keys within +-2^53 group by value; a larger key (which
  // Value::Compare compares as a double, so 2^53 + 1 groups with 2^53)
  // makes the aggregate sink demote to full-key grouping mid-stream.
  // Grouping and first-occurrence order must be unaffected.
  constexpr int64_t kBig = int64_t{1} << 53;
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    const int64_t key =
        i < 150 ? i % 10 : (i % 2 == 0 ? kBig + i % 3 : i % 10);
    rows.push_back({Value(key), Value(i * 0.5)});
  }
  const Table t =
      Table::FromRows({{"k", ValueType::kInt64}, {"v", ValueType::kDouble}},
                      rows)
          .ValueOrDie();
  const auto plan =
      VHashAggregate(VScan(&t), {0}, {{AggFunc::kSum, Expr::Col(1), "s"}});
  ExpectBitIdentical(plan);
  auto row = RunRow(plan);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->num_rows(), 12u);  // 0..9, 2^53 (with 2^53 + 1), 2^53 + 2
}

TEST(VectorizedPlanTest, HashJoin) {
  Table build = Numbers(40, 11);
  Table probe = Numbers(900, 13);
  ExpectBitIdentical(
      VHashJoin(VScan(&build), VScan(&probe), {0}, {0}));
}

TEST(VectorizedPlanTest, SortMultiKeyTopK) {
  Table t = Numbers(300, 17);
  ExpectBitIdentical(VSort(VScan(&t), {1, 0}, {false, true}, 25));
}

TEST(VectorizedPlanTest, SortWithTopKLimit) {
  Table t = Numbers(500, 23);
  ExpectBitIdentical(VSort(VScan(&t), {1}, {false}, 10));
}

TEST(VectorizedPlanTest, IllTypedPlanIsInvalidArgument) {
  // Mixing string and numeric operands would abort either engine's
  // evaluator; both reject the plan with InvalidArgument instead.
  Table t = Numbers(5);
  Table named =
      Table::FromRows({{"name", ValueType::kString}, {"v", ValueType::kDouble}},
                      {{Value("a"), Value(1.0)}})
          .ValueOrDie();
  const auto scan = VScan(&named);
  const auto plus_one =
      VProject(scan, {Expr::Col(0) + Expr::Lit(Value(1.0))}, {"x"});
  const auto renamed = VProject(scan, {Expr::Col(0)}, {"s"});
  EXPECT_EQ(renamed->schema.column(0).type, ValueType::kString);
  const std::vector<VecNodePtr> plans = {
      VFilter(scan, Eq(Expr::Col(0), Expr::Lit(Value(int64_t{1})))),
      plus_one,
      // The project records its inferred type, so a filter above it is
      // checked too.
      VFilter(renamed, Gt(Expr::Col(0), Expr::Lit(Value(2.0)))),
      VHashAggregate(scan, {}, {{AggFunc::kSum, Expr::Col(0), "s"}}),
      VHashAggregate(scan, {}, {{AggFunc::kAvg, Expr::Col(0), "a"}}),
      VHashJoin(scan, VScan(&t), {0}, {0}),
      // MIN keeps its argument's type, so a filter above it is checked.
      VFilter(VHashAggregate(scan, {1}, {{AggFunc::kMin, Expr::Col(0), "m"}}),
              Eq(Expr::Col(1), Expr::Lit(Value(int64_t{1})))),
  };
  for (const auto& plan : plans) {
    auto vec = ExecuteVectorized(plan);
    ASSERT_FALSE(vec.ok());
    EXPECT_TRUE(vec.status().IsInvalidArgument()) << vec.status();
    auto row = RunRow(plan);
    ASSERT_FALSE(row.ok());
    EXPECT_TRUE(row.status().IsInvalidArgument()) << row.status();
  }
  // MIN/MAX order strings, and string keys join string keys.
  ExpectBitIdentical(VHashAggregate(scan, {},
                                    {{AggFunc::kMax, Expr::Col(0), "m"}}));
  ExpectBitIdentical(VHashJoin(scan, scan, {0}, {0}));
}

TEST(VectorizedPlanTest, DeepPipelineBitIdentical) {
  // Aggregate over a join over a filtered sort: several pipelines with
  // breakers in the middle.
  Table a = Numbers(800, 29);
  Table dim = Numbers(29, 29);
  const auto fact = VFilter(VSort(VScan(&a), {2}, {true}),
                            Gt(Expr::Col(1), Expr::Lit(Value(10.0))));
  const auto joined = VHashJoin(VScan(&dim), fact, {0}, {0});
  ExpectBitIdentical(VHashAggregate(
      joined, {0},
      {{AggFunc::kSum, Expr::Col(1) + Expr::Col(4), "s"},
       {AggFunc::kCount, nullptr, "c"}}));
}

TEST(VectorizedPlanTest, MorselSizeDoesNotChangeResults) {
  Table t = Numbers(1111, 41);
  const auto plan = VHashAggregate(
      VFilter(VScan(&t), Lt(Expr::Col(0), Expr::Lit(Value(int64_t{30})))),
      {0}, {{AggFunc::kSum, Expr::Col(1), "s"}});
  auto row = RunRow(plan);
  ASSERT_TRUE(row.ok());
  for (const size_t morsel : {1u, 7u, 256u, 4096u}) {
    VecExecOptions opts;
    opts.morsel_rows = morsel;
    auto vec = ExecuteVectorized(plan, opts);
    ASSERT_TRUE(vec.ok()) << vec.status();
    EXPECT_TRUE(BitIdenticalTables(*row, *vec)) << "morsel=" << morsel;
  }
}

void ExpectSameProfileRows(const obs::OperatorProfile& row,
                           const obs::OperatorProfile& vec,
                           const std::string& where) {
  ASSERT_EQ(row.name, vec.name) << where;
  EXPECT_EQ(row.rows_out, vec.rows_out) << where << "/" << row.name;
  ASSERT_EQ(row.children.size(), vec.children.size()) << where;
  for (size_t i = 0; i < row.children.size(); ++i) {
    ExpectSameProfileRows(row.children[i], vec.children[i],
                          where + "/" + row.name);
  }
}

TEST(VectorizedPlanTest, MultiThreadedProfileRowsMatchRowEngine) {
  // Worker-local profile slots of four morsel threads, folded at pipeline
  // finish, must count exactly the rows the row engine's decorators see.
  Table dim = Numbers(40, 40);
  Table fact = Numbers(5000, 37);
  const auto probe =
      VFilter(VScan(&fact), Gt(Expr::Col(1), Expr::Lit(Value(100.0))));
  const auto plan = VHashAggregate(
      VHashJoin(VScan(&dim), probe, {0}, {0}), {0},
      {{AggFunc::kSum, Expr::Col(4), "s"}, {AggFunc::kCount, nullptr, "c"}});

  obs::OperatorProfile row_root;
  const OperatorPtr op = ToOperator(plan, &row_root);
  auto row = Drain(op.get());
  ASSERT_TRUE(row.ok()) << row.status();

  obs::OperatorProfile vec_root;
  VecExecOptions opts;
  opts.num_threads = 4;
  opts.morsel_rows = 64;  // ~80 morsels spread over the workers
  opts.profile = &vec_root;
  auto vec = ExecuteVectorized(plan, opts);
  ASSERT_TRUE(vec.ok()) << vec.status();
  EXPECT_TRUE(BitIdenticalTables(*row, *vec));
  ExpectSameProfileRows(row_root, vec_root, "");
  EXPECT_EQ(vec_root.rows_out, vec->num_rows());
  ASSERT_FALSE(vec_root.children.empty());
  EXPECT_GT(vec_root.children[0].rows_out, 0u);
}

TEST(VectorizedPlanTest, NullPlanAndNullScanDiagnostics) {
  EXPECT_FALSE(ExecuteVectorized(nullptr).ok());
  auto vec = ExecuteVectorized(VScan(nullptr));
  ASSERT_FALSE(vec.ok());
  EXPECT_TRUE(vec.status().IsInvalidArgument());
}

}  // namespace
}  // namespace xdbft::exec
