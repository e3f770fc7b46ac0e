// google-benchmark microbenchmarks for the execution engine: operator
// throughputs (scan, filter, hash join, aggregation, sort),
// TPC-H data generation rate and partition-parallel Q5 end-to-end.
//
// Before the microbenchmarks, main() runs a row-vs-batch vectorization
// sweep of scan -> filter -> hash-aggregate across thread counts and
// emits its rows into BENCH_exec.json when $XDBFT_BENCH_JSON_DIR is set —
// the artifact the CI speedup check reads. The sweep asserts the batch
// result is bit-identical to the row engine at every thread count. Flags
// (handled before google-benchmark):
//   --sweep-only  full sweep, skip the microbenchmarks (the CI artifact)
//   --vectorized  quick sweep (smaller input), skip the microbenchmarks
//                 (the bench-smoke ctest entry)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "datagen/tpch_gen.h"
#include "engine/ft_executor.h"
#include "engine/stage_plan.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "ft/mat_config.h"

using namespace xdbft;
using exec::AggFunc;
using exec::Expr;
using exec::Table;
using exec::Value;
using exec::ValueType;

namespace {

Table MakeInts(int64_t n, int64_t key_domain, uint64_t seed) {
  exec::TableBuilder b({{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    b.column(0).AppendInt64(rng.NextInt(0, key_domain - 1));
    b.column(1).AppendDouble(rng.NextDouble() * 100.0);
    b.EndRow();
  }
  return b.Finish();
}

void BM_Scan(benchmark::State& state) {
  const Table t = MakeInts(state.range(0), 1000, 1);
  for (auto _ : state) {
    auto op = exec::MakeScan(&t);
    auto r = exec::Drain(op.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Scan)->Arg(100000);

void BM_Filter(benchmark::State& state) {
  const Table t = MakeInts(state.range(0), 1000, 2);
  for (auto _ : state) {
    auto op = exec::MakeFilter(
        exec::MakeScan(&t),
        exec::Lt(Expr::Col(0), Expr::Lit(Value(int64_t{500}))));
    auto r = exec::Drain(op.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Filter)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  const Table build = MakeInts(state.range(0) / 10, 10000, 3);
  const Table probe = MakeInts(state.range(0), 10000, 4);
  for (auto _ : state) {
    auto op = exec::MakeHashJoin(exec::MakeScan(&build),
                                 exec::MakeScan(&probe), {0}, {0});
    auto r = exec::Drain(op.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(100000);

void BM_HashAggregate(benchmark::State& state) {
  const Table t = MakeInts(state.range(0), 1000, 5);
  for (auto _ : state) {
    auto op = exec::MakeHashAggregate(
        exec::MakeScan(&t), {0},
        {{AggFunc::kSum, Expr::Col(1), "s"},
         {AggFunc::kCount, nullptr, "c"}});
    auto r = exec::Drain(op.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashAggregate)->Arg(100000);

void BM_Sort(benchmark::State& state) {
  const Table t = MakeInts(state.range(0), 1 << 30, 6);
  for (auto _ : state) {
    auto op = exec::MakeSort(exec::MakeScan(&t), {0}, {true});
    auto r = exec::Drain(op.get());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sort)->Arg(100000);

void BM_TpchGenerate(benchmark::State& state) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.01;
  for (auto _ : state) {
    auto db = datagen::GenerateTpch(opts);
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_TpchGenerate)->Unit(benchmark::kMillisecond);

void BM_Q5EndToEnd(benchmark::State& state) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.01;
  const auto db = *datagen::GenerateTpch(opts);
  const auto pd = *engine::DistributeTpch(db, 4);
  const engine::StagePlan plan = engine::MakeQ5StagePlan(pd);
  const auto config = ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton());
  engine::FaultTolerantExecutor executor(&plan, &pd);
  executor.set_num_threads(0);  // partition tasks on every hardware thread
  for (auto _ : state) {
    auto r = executor.Execute(config);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Q5EndToEnd)->Unit(benchmark::kMillisecond);

// Row-engine vs morsel-driven vectorized engine on the canonical
// scan -> filter -> hash-aggregate microbenchmark, across thread counts.
// Asserts the vectorized result is bit-identical to the row engine at
// every thread count and reports single-thread batch-vs-row speedup.
int RunVectorizationSweep(bench::BenchJsonWriter* json, bool quick) {
  bench::PrintHeader(
      "Vectorized execution: row vs batch engine (scan+filter+agg)",
      "morsel-driven pipelines over the Volcano baseline");
  const int64_t rows = quick ? 1000000 : 4000000;
  // Q1-shaped input: (key, price, discount); the aggregate argument is the
  // revenue expression price * (1 - discount), where vectorized evaluation
  // pays off most against the row engine's per-row expression tree walk.
  Table t;
  {
    exec::TableBuilder b({{"k", exec::ValueType::kInt64},
                          {"price", exec::ValueType::kDouble},
                          {"disc", exec::ValueType::kDouble}});
    Rng rng(11);
    for (int64_t i = 0; i < rows; ++i) {
      b.column(0).AppendInt64(rng.NextInt(0, 99999));
      b.column(1).AppendDouble(rng.NextDouble() * 100.0);
      b.column(2).AppendDouble(rng.NextDouble() * 0.1);
      b.EndRow();
    }
    t = b.Finish();
  }
  const auto revenue =
      Expr::Col(1) * (Expr::Lit(Value(1.0)) - Expr::Col(2));
  const auto plan = exec::VHashAggregate(
      exec::VFilter(exec::VScan(&t),
                    exec::Lt(Expr::Col(0), Expr::Lit(Value(int64_t{50000})))),
      {0},
      {{AggFunc::kSum, revenue, "revenue"},
       {AggFunc::kCount, nullptr, "c"}});
  const int repeats = quick ? 4 : 6;
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  const auto time_best = [&](const std::function<Result<Table>()>& run,
                             Table* result) -> double {
    double best = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto r = run();
      const auto end = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "vectorization sweep failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      const double secs = std::chrono::duration<double>(end - start).count();
      if (rep == 0 || secs < best) {
        best = secs;
        *result = std::move(*r);
      }
    }
    return best;
  };

  bench::Table table({"engine", "threads", "seconds", "mrows/s", "vs_row"},
                     {8, 7, 9, 9, 8});
  table.PrintHeaderRow();
  Table row_result;
  const double row_seconds = time_best(
      [&]() {
        auto op = exec::ToOperator(plan);
        return exec::Drain(op.get());
      },
      &row_result);
  const auto emit = [&](const std::string& engine, int threads, double secs,
                        double speedup) {
    table.PrintRow({engine, StrFormat("%d", threads),
                    StrFormat("%.4f", secs),
                    StrFormat("%.1f",
                              static_cast<double>(rows) / secs / 1e6),
                    StrFormat("%.2fx", speedup)});
    bench::JsonLine line;
    line.Set("workload", "vec_scan_filter_agg")
        .Set("engine", engine)
        .Set("threads", static_cast<double>(threads))
        .Set("seconds", secs)
        .Set("rows", static_cast<double>(rows))
        .Set("rows_per_sec", static_cast<double>(rows) / secs)
        .Set("speedup_vs_row", speedup)
        .Set("quick", quick);
    json->Write(line);
  };
  emit("row", 1, row_seconds, 1.0);

  int violations = 0;
  double single_thread_speedup = 0.0;
  for (const int threads : thread_counts) {
    Table vec_result;
    const double secs = time_best(
        [&]() {
          exec::VecExecOptions vopts;
          vopts.num_threads = threads;
          return exec::ExecuteVectorized(plan, vopts);
        },
        &vec_result);
    if (!exec::BitIdenticalTables(row_result, vec_result)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: vectorized at %d threads "
                   "diverges from the row engine\n",
                   threads);
      ++violations;
    }
    const double speedup = secs > 0.0 ? row_seconds / secs : 0.0;
    if (threads == 1) single_thread_speedup = speedup;
    emit("batch", threads, secs, speedup);
  }
  if (violations == 0) {
    std::printf(
        "\nBatch engine bit-identical to the row engine at every thread "
        "count; single-thread speedup %.2fx.\n",
        single_thread_speedup);
  }
  if (single_thread_speedup < 1.5) {
    std::fprintf(stderr,
                 "warning: single-thread batch speedup %.2fx below the "
                 "1.5x target\n",
                 single_thread_speedup);
  }

  // Profiler overhead: the same plan at the max sweep thread count with
  // EXPLAIN ANALYZE collection on vs off. Target is <5% wall clock. The
  // profiled run also contributes one "vec_profile_op" row per operator
  // so the BENCH artifact carries the per-operator profile.
  const int max_threads = thread_counts.back();
  const auto run_vec = [&](obs::OperatorProfile* profile) {
    return [&, profile]() {
      exec::VecExecOptions vopts;
      vopts.num_threads = max_threads;
      vopts.profile = profile;
      return exec::ExecuteVectorized(plan, vopts);
    };
  };
  // Interleave the two variants (instead of two back-to-back time_best
  // calls) so frequency/thermal drift hits both equally, and use extra
  // repeats: the deltas being resolved are small relative to run noise.
  const int overhead_reps = repeats * 3;
  Table plain_result;
  Table profiled_result;
  obs::OperatorProfile profile;
  double plain_seconds = 0.0;
  double profiled_seconds = 0.0;
  const auto time_once = [](const std::function<Result<Table>()>& run,
                            Table* result) -> double {
    const auto start = std::chrono::steady_clock::now();
    auto r = run();
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      std::fprintf(stderr, "profiler overhead run failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    *result = std::move(*r);
    return std::chrono::duration<double>(end - start).count();
  };
  for (int rep = 0; rep < overhead_reps; ++rep) {
    const double plain = time_once(run_vec(nullptr), &plain_result);
    if (rep == 0 || plain < plain_seconds) plain_seconds = plain;
    const double profiled = time_once(run_vec(&profile), &profiled_result);
    if (rep == 0 || profiled < profiled_seconds) profiled_seconds = profiled;
  }
  if (!exec::BitIdenticalTables(plain_result, profiled_result)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: profiled vectorized run diverges "
                 "from the unprofiled run\n");
    ++violations;
  }
  const double overhead_pct =
      plain_seconds > 0.0
          ? (profiled_seconds / plain_seconds - 1.0) * 100.0
          : 0.0;
  std::printf(
      "\nProfiler overhead at %d threads: plain %.4fs, profiled %.4fs "
      "(%+.2f%%).\n",
      max_threads, plain_seconds, profiled_seconds, overhead_pct);
  if (overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "warning: profiler overhead %.2f%% above the 5%% target\n",
                 overhead_pct);
  }
  bench::JsonLine overhead;
  overhead.Set("workload", "vec_profile_overhead")
      .Set("threads", static_cast<double>(max_threads))
      .Set("seconds_plain", plain_seconds)
      .Set("seconds_profiled", profiled_seconds)
      .Set("overhead_pct", overhead_pct)
      .Set("rows", static_cast<double>(rows))
      .Set("quick", quick);
  json->Write(overhead);
  const std::function<void(const obs::OperatorProfile&, int)> emit_op =
      [&](const obs::OperatorProfile& op, int depth) {
        bench::JsonLine line;
        line.Set("workload", "vec_profile_op")
            .Set("op", op.name)
            .Set("depth", static_cast<double>(depth))
            .Set("rows_out", static_cast<double>(op.rows_out))
            .Set("batches", static_cast<double>(op.batches))
            .Set("op_seconds", op.seconds)
            .Set("est_memory_bytes",
                 static_cast<double>(op.est_memory_bytes))
            .Set("threads", static_cast<double>(max_threads))
            .Set("quick", quick);
        json->Write(line);
        for (const auto& child : op.children) emit_op(child, depth + 1);
      };
  emit_op(profile, 0);
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool sweep_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    } else if (std::strcmp(argv[i], "--vectorized") == 0) {
      quick = true;
      sweep_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::BenchJsonWriter json("exec");
  const int rc = RunVectorizationSweep(&json, quick);
  if (rc != 0 || sweep_only) return rc;
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
