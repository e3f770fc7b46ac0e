// google-benchmark microbenchmarks for the optimizer-facing hot paths:
// collapsed-plan construction, path enumeration, cost estimation, the
// full findBestFTPlan with and without pruning (sequential and on the
// work-stealing task pool), and join-order enumeration.
//
// Before the microbenchmarks, main() runs a thread-scaling sweep of
// findBestFTPlan over the Q5 workloads (top-k candidates and all 1344
// join orders) and emits one row per (workload, threads) into
// BENCH_enum.json when $XDBFT_BENCH_JSON_DIR is set — the artifact the
// CI speedup check reads. Rows record the machine's hardware
// concurrency, since the attainable speedup is bounded by it. The sweep
// exits 1 when a FindBest fails or any thread count picks a different
// plan, configuration or cost than the 1-thread search;
// `--benchmark_filter=^$` runs the sweep alone.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>

#include "bench_util.h"
#include "ft/enumerator.h"
#include "tpch/q5_join_graph.h"
#include "tpch/queries.h"

using namespace xdbft;

namespace {

plan::Plan Q5Plan() {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  return *tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
}

ft::FtCostContext Context(double mtbf = 3600.0) {
  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, mtbf, 1.0);
  return ctx;
}

std::vector<plan::Plan> Q5JoinOrderPlans(int top_k) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  const auto graph = *tpch::MakeQ5JoinGraph(cfg);
  const auto params = tpch::MakePhysicalCostParams(cfg);
  optimizer::JoinTreeArena arena;
  std::vector<int> roots;
  if (top_k > 0) {
    roots = *optimizer::EnumerateTopKJoinTrees(graph, top_k, params, &arena);
  } else {
    roots = *optimizer::EnumerateAllJoinTrees(graph, &arena);
  }
  std::vector<plan::Plan> plans;
  for (int root : roots) {
    plans.push_back(*optimizer::EmitPlan(arena, root, graph, params));
  }
  return plans;
}

void BM_CollapsePlan(benchmark::State& state) {
  const plan::Plan plan = Q5Plan();
  const auto config = ft::MaterializationConfig::FromFreeMask(plan, 0b10101);
  for (auto _ : state) {
    auto cp = ft::CollapsedPlan::Create(plan, config);
    benchmark::DoNotOptimize(cp);
  }
}
BENCHMARK(BM_CollapsePlan);

void BM_PathEnumeration(benchmark::State& state) {
  const plan::Plan plan = Q5Plan();
  const auto config = ft::MaterializationConfig::FromFreeMask(plan, 0b10101);
  const auto cp = *ft::CollapsedPlan::Create(plan, config);
  for (auto _ : state) {
    size_t count = 0;
    cp.ForEachPath([&](const ft::CollapsedPath&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PathEnumeration);

void BM_EstimatePlan(benchmark::State& state) {
  const plan::Plan plan = Q5Plan();
  const auto config = ft::MaterializationConfig::FromFreeMask(plan, 0b10101);
  const ft::FtCostModel model(Context());
  const auto cp = *ft::CollapsedPlan::Create(plan, config);
  for (auto _ : state) {
    auto est = model.Estimate(cp);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_EstimatePlan);

void BM_FindBestSinglePlan(benchmark::State& state) {
  const plan::Plan plan = Q5Plan();
  const bool pruning = state.range(0) != 0;
  ft::EnumerationOptions opts;
  opts.pruning.rule1 = opts.pruning.rule2 = opts.pruning.rule3 = pruning;
  opts.pruning.memoize_dominant_paths = pruning;
  for (auto _ : state) {
    ft::FtPlanEnumerator enumerator(Context(), opts);
    auto best = enumerator.FindBest(plan);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FindBestSinglePlan)->Arg(0)->Arg(1);

void BM_EnumerateAllQ5JoinOrders(benchmark::State& state) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  const auto graph = *tpch::MakeQ5JoinGraph(cfg);
  for (auto _ : state) {
    optimizer::JoinTreeArena arena;
    auto trees = optimizer::EnumerateAllJoinTrees(graph, &arena);
    benchmark::DoNotOptimize(trees);
  }
}
BENCHMARK(BM_EnumerateAllQ5JoinOrders);

void BM_FindBestOverAllJoinOrders(benchmark::State& state) {
  // The Fig. 13 workload: 1344 plans x 32 configurations.
  const std::vector<plan::Plan> plans = Q5JoinOrderPlans(/*top_k=*/0);
  const bool pruning = state.range(0) != 0;
  ft::EnumerationOptions opts;
  opts.pruning.rule1 = opts.pruning.rule2 = opts.pruning.rule3 = pruning;
  opts.pruning.memoize_dominant_paths = pruning;
  for (auto _ : state) {
    ft::FtPlanEnumerator enumerator(Context(), opts);
    auto best = enumerator.FindBest(plans);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FindBestOverAllJoinOrders)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FindBestParallel(benchmark::State& state) {
  // Same workload on the task pool; Arg = worker threads. The pool is
  // reused across iterations (the production shape: one enumerator,
  // many FindBest calls).
  const std::vector<plan::Plan> plans = Q5JoinOrderPlans(/*top_k=*/0);
  ft::EnumerationOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  ft::FtPlanEnumerator enumerator(Context(), opts);
  for (auto _ : state) {
    auto best = enumerator.FindBest(plans);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FindBestParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TopKJoinEnumeration(benchmark::State& state) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  const auto graph = *tpch::MakeQ5JoinGraph(cfg);
  const auto params = tpch::MakePhysicalCostParams(cfg);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    optimizer::JoinTreeArena arena;
    auto roots = optimizer::EnumerateTopKJoinTrees(graph, k, params,
                                                   &arena);
    benchmark::DoNotOptimize(roots);
  }
}
BENCHMARK(BM_TopKJoinEnumeration)->Arg(1)->Arg(8);

// Best-of-`repeats` wall clock of one FindBest over `plans`; false (with a
// message on stderr) when any repeat fails.
bool TimeFindBest(ft::FtPlanEnumerator& enumerator,
                  const std::vector<plan::Plan>& plans, int repeats,
                  ft::FtPlanChoice* choice, double* seconds) {
  *seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = enumerator.FindBest(plans);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "FindBest failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    *choice = std::move(*result);
    *seconds =
        std::min(*seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return true;
}

// Returns false on a failed FindBest or when any thread count picks a
// different [P, M_P] or cost than the 1-thread search.
bool RunThreadScalingSweep() {
  bench::PrintHeader(
      "Parallel findBestFTPlan: thread scaling",
      "extension of §4 (Listing 1) — identical [P, M_P] at every "
      "thread count");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency = %u\n\n", hw);

  bench::BenchJsonWriter json("enum");
  bench::Table table({"workload", "threads", "seconds", "speedup",
                      "tasks", "stolen"},
                     {20, 7, 10, 8, 7, 7});
  table.PrintHeaderRow();

  struct Workload {
    const char* name;
    int top_k;  // 0 = all join orders
    int repeats;
  };
  bool ok = true;
  for (const Workload& w : {Workload{"q5_topk32", 32, 5},
                            Workload{"q5_all_join_orders", 0, 3}}) {
    const std::vector<plan::Plan> plans = Q5JoinOrderPlans(w.top_k);
    double base_seconds = 0.0;
    ft::FtPlanChoice base_choice;
    for (int threads : {1, 2, 4, 8}) {
      ft::EnumerationOptions opts;
      opts.num_threads = threads;
      ft::FtPlanEnumerator enumerator(Context(), opts);
      ft::FtPlanChoice choice;
      double seconds = 0.0;
      if (!TimeFindBest(enumerator, plans, w.repeats, &choice, &seconds)) {
        std::fprintf(stderr, "at %d threads on %s\n", threads, w.name);
        return false;
      }
      if (threads == 1) {
        base_seconds = seconds;
        base_choice = choice;
      } else if (choice.plan_index != base_choice.plan_index ||
                 !(choice.config == base_choice.config) ||
                 std::bit_cast<uint64_t>(choice.estimated_cost) !=
                     std::bit_cast<uint64_t>(base_choice.estimated_cost)) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %d threads on %s\n",
                     threads, w.name);
        ok = false;
      }
      const double speedup = base_seconds / seconds;
      const auto& stats = enumerator.stats();
      table.PrintRow({w.name, StrFormat("%d", threads),
                      StrFormat("%.4f", seconds),
                      StrFormat("%.2fx", speedup),
                      StrFormat("%llu", (unsigned long long)
                                    stats.tasks_executed),
                      StrFormat("%llu", (unsigned long long)
                                    stats.tasks_stolen)});
      bench::JsonLine row;
      row.Set("workload", w.name)
          .Set("threads", static_cast<double>(threads))
          .Set("seconds", seconds)
          .Set("speedup_vs_1", speedup)
          .Set("plan_index", static_cast<double>(choice.plan_index))
          .Set("cost", choice.estimated_cost)
          .Set("candidate_plans",
               static_cast<double>(stats.candidate_plans))
          .Set("tasks_executed",
               static_cast<double>(stats.tasks_executed))
          .Set("tasks_stolen", static_cast<double>(stats.tasks_stolen))
          .Set("hardware_concurrency", static_cast<double>(hw));
      json.Write(row);
    }
  }
  if (json.enabled()) {
    std::printf("\nWrote %s\n", json.path().c_str());
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!RunThreadScalingSweep()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
