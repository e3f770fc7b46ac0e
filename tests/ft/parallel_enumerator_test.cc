// The parallel enumerator's contract (DESIGN.md "Concurrency model"):
// FindBest returns a bit-identical [P, M_P] and cost at every thread
// count, and the deterministic stats (space sizes, rule-1/2 marks)
// aggregate exactly from the per-thread snapshots. Exercised on TPC-H Q3
// and Q5 single plans, the Q5 top-k and all-join-order workloads, and
// random chains. This suite is the TSan CI leg's main concurrency
// workload.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "ft/enumerator.h"
#include "obs/trace.h"
#include "optimizer/join_enumerator.h"
#include "tpch/q5_join_graph.h"
#include "tpch/queries.h"

namespace xdbft::ft {
namespace {

using plan::OpId;
using plan::OpType;
using plan::Plan;
using plan::PlanBuilder;

FtCostContext MakeContext(double mtbf, int nodes = 10) {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(nodes, mtbf, 1.0);
  return ctx;
}

Plan TpchPlan(tpch::TpchQuery q, double sf = 10.0) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = sf;
  auto plan = tpch::BuildQuery(q, cfg);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

// The k cheapest Q5 join orders, or all 1344 when k is 0.
std::vector<Plan> Q5JoinOrderPlans(int k) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto graph = tpch::MakeQ5JoinGraph(cfg);
  EXPECT_TRUE(graph.ok());
  const auto params = tpch::MakePhysicalCostParams(cfg);
  optimizer::JoinTreeArena arena;
  auto roots =
      k > 0 ? optimizer::EnumerateTopKJoinTrees(*graph, k, params, &arena)
            : optimizer::EnumerateAllJoinTrees(*graph, &arena);
  EXPECT_TRUE(roots.ok());
  std::vector<Plan> plans;
  for (int root : *roots) {
    auto p = optimizer::EmitPlan(arena, root, *graph, params);
    if (p.ok()) plans.push_back(std::move(*p));
  }
  return plans;
}

EnumerationOptions WithThreads(int threads) {
  EnumerationOptions opts;
  opts.num_threads = threads;
  return opts;
}

// Satellite contract: sequential vs 2/4/8-thread enumeration returns the
// identical [P, M_P] and cost on Q3 and Q5.
TEST(ParallelEnumeratorTest, DeterministicAcrossThreadCountsOnQ3AndQ5) {
  for (tpch::TpchQuery q : {tpch::TpchQuery::kQ3, tpch::TpchQuery::kQ5}) {
    const Plan plan = TpchPlan(q);
    for (double mtbf : {3600.0, 86400.0}) {
      FtPlanEnumerator sequential(MakeContext(mtbf), WithThreads(1));
      auto base = sequential.FindBest(plan);
      ASSERT_TRUE(base.ok()) << base.status();
      for (int threads : {2, 4, 8}) {
        FtPlanEnumerator parallel(MakeContext(mtbf), WithThreads(threads));
        auto got = parallel.FindBest(plan);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->plan_index, base->plan_index)
            << "threads=" << threads << " mtbf=" << mtbf;
        EXPECT_TRUE(got->config == base->config)
            << "threads=" << threads << " mtbf=" << mtbf;
        EXPECT_EQ(got->estimated_cost, base->estimated_cost)  // bit-identical
            << "threads=" << threads << " mtbf=" << mtbf;
        EXPECT_EQ(got->dominant_path, base->dominant_path);
      }
    }
  }
}

// The Q5 top-16 candidates, and all 1344 join orders (the Fig. 13
// workload), at 2/4/8 threads against the zero-worker pool.
TEST(ParallelEnumeratorTest, DeterministicOnQ5TopKWorkload) {
  for (const int k : {16, 0}) {
    const std::vector<Plan> plans = Q5JoinOrderPlans(k);
    ASSERT_EQ(plans.size(), k > 0 ? 16u : 1344u);
    FtPlanEnumerator sequential(MakeContext(3600.0), WithThreads(1));
    auto base = sequential.FindBest(plans);
    ASSERT_TRUE(base.ok()) << base.status();
    for (int threads : {2, 4, 8}) {
      FtPlanEnumerator parallel(MakeContext(3600.0), WithThreads(threads));
      auto got = parallel.FindBest(plans);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->plan_index, base->plan_index)
          << "k=" << k << " threads=" << threads;
      EXPECT_TRUE(got->config == base->config)
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(got->estimated_cost, base->estimated_cost)
          << "k=" << k << " threads=" << threads;
    }
  }
}

Plan RandomChain(Rng& rng, int trial) {
  PlanBuilder b("rand" + std::to_string(trial));
  const int length = static_cast<int>(rng.NextInt(3, 8));
  OpId prev = b.Scan("src", 1e5, 64, rng.NextDouble() * 10.0);
  b.plan().mutable_node(prev).materialize_cost = rng.NextDouble() * 5.0;
  for (int i = 0; i < length; ++i) {
    prev = b.Unary(OpType::kFilter, "op" + std::to_string(i), prev,
                   rng.NextDouble() * 10.0, rng.NextDouble() * 5.0);
  }
  return std::move(b).Build();
}

TEST(ParallelEnumeratorTest, DeterministicOnRandomChains) {
  Rng rng(20260805);
  for (int trial = 0; trial < 15; ++trial) {
    const Plan p = RandomChain(rng, trial);
    const double mtbf = 5.0 + rng.NextDouble() * 500.0;
    FtPlanEnumerator sequential(MakeContext(mtbf, 1), WithThreads(1));
    FtPlanEnumerator parallel(MakeContext(mtbf, 1), WithThreads(4));
    auto base = sequential.FindBest(p);
    auto got = parallel.FindBest(p);
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->config == base->config) << "trial=" << trial;
    EXPECT_EQ(got->estimated_cost, base->estimated_cost)
        << "trial=" << trial << " mtbf=" << mtbf;
  }
}

// Satellite contract: the deterministic counters must aggregate exactly
// from the per-thread snapshots — parallel totals equal the sequential
// run's (rule-3 counters are schedule-dependent by design and are checked
// as invariants instead).
TEST(ParallelEnumeratorTest, StatsAggregateExactlyUnderConcurrency) {
  const std::vector<Plan> plans = Q5JoinOrderPlans(16);
  FtPlanEnumerator sequential(MakeContext(3600.0), WithThreads(1));
  ASSERT_TRUE(sequential.FindBest(plans).ok());
  const EnumerationStats& base = sequential.stats();
  for (int threads : {2, 8}) {
    FtPlanEnumerator parallel(MakeContext(3600.0), WithThreads(threads));
    ASSERT_TRUE(parallel.FindBest(plans).ok());
    const EnumerationStats& got = parallel.stats();
    EXPECT_EQ(got.candidate_plans, base.candidate_plans);
    EXPECT_EQ(got.total_ft_plans_unpruned, base.total_ft_plans_unpruned);
    EXPECT_EQ(got.ft_plans_enumerated, base.ft_plans_enumerated);
    EXPECT_EQ(got.rule1_ops_marked, base.rule1_ops_marked);
    EXPECT_EQ(got.rule2_ops_marked, base.rule2_ops_marked);
    // Schedule-dependent counters still obey the accounting identities.
    EXPECT_LE(got.rule3_rejections, got.ft_plans_enumerated);
    EXPECT_GE(got.rule3_rejections, got.rule3_early_stops);
    EXPECT_EQ(got.rule3_rejections,
              got.rule3_rpt_hits + got.rule3_tpt_hits + got.rule3_memo_hits);
    EXPECT_GT(got.tasks_executed, 1u);
  }
}

// With every pruning rule off there is no shared bound or memo, so even
// the path counters must match the sequential run exactly.
TEST(ParallelEnumeratorTest, NoPruningParallelCountsMatchSequentialExactly) {
  const Plan plan = TpchPlan(tpch::TpchQuery::kQ5);
  EnumerationOptions seq_opts = WithThreads(1);
  seq_opts.pruning = PruningOptions{false, false, false, false};
  EnumerationOptions par_opts = WithThreads(8);
  par_opts.pruning = seq_opts.pruning;
  FtPlanEnumerator sequential(MakeContext(3600.0), seq_opts);
  FtPlanEnumerator parallel(MakeContext(3600.0), par_opts);
  auto base = sequential.FindBest(plan);
  auto got = parallel.FindBest(plan);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->estimated_cost, base->estimated_cost);
  EXPECT_TRUE(got->config == base->config);
  EXPECT_EQ(parallel.stats().paths_evaluated,
            sequential.stats().paths_evaluated);
  EXPECT_EQ(parallel.stats().rule3_rejections, 0u);
}

TEST(ParallelEnumeratorTest, ZeroThreadsResolvesToHardwareConcurrency) {
  EXPECT_GE(FtPlanEnumerator::ResolveThreads(0), 1);
  EXPECT_EQ(FtPlanEnumerator::ResolveThreads(1), 1);
  EXPECT_EQ(FtPlanEnumerator::ResolveThreads(6), 6);
  const Plan plan = TpchPlan(tpch::TpchQuery::kQ3);
  FtPlanEnumerator enumerator(MakeContext(3600.0), WithThreads(0));
  EXPECT_TRUE(enumerator.FindBest(plan).ok());
}

TEST(ParallelEnumeratorTest, RecordsPerThreadTraceLanes) {
  obs::TraceRecorder trace;
  EnumerationOptions opts = WithThreads(2);
  opts.trace = &trace;
  opts.trace_pid = 7;
  FtPlanEnumerator enumerator(MakeContext(3600.0), opts);
  ASSERT_TRUE(enumerator.FindBest(Q5JoinOrderPlans(8)).ok());
  // Thread-name metadata plus at least one "enum.chunk" span per task.
  EXPECT_GT(trace.num_events(), 3u);
  EXPECT_NE(trace.ToJson().find("enum.chunk"), std::string::npos);
  EXPECT_NE(trace.ToJson().find("enum worker 1"), std::string::npos);
}

TEST(ParallelEnumeratorTest, ErrorsSurfaceAtAnyThreadCount) {
  PlanBuilder b("wide");
  std::vector<OpId> scans;
  for (int i = 0; i < 30; ++i) {
    scans.push_back(b.Scan("s" + std::to_string(i), 10, 8, 1.0));
  }
  b.Nary(OpType::kUnion, "u", scans, 1.0, 0.1);
  const Plan p = std::move(b).Build();
  for (int threads : {1, 4}) {
    EnumerationOptions opts = WithThreads(threads);
    opts.pruning = PruningOptions{false, false, false, false};
    opts.max_free_operators = 10;
    FtPlanEnumerator enumerator(MakeContext(60.0), opts);
    EXPECT_FALSE(enumerator.FindBest(p).ok()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace xdbft::ft
