// Scheme-comparison determinism: every one of the five fault-tolerance
// schemes applied to TPC-H Q1/Q3/Q5 must return the same materialization
// configuration and bit-identical estimated cost at any enumeration
// worker count (mirrors correlated_cost_test's thread-count suite, which
// covers the correlated model; this one covers the scheme entry points —
// including write-ahead lineage, whose rule gating changes what the
// parallel workers may prune).
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "ft/scheme.h"
#include "tpch/queries.h"

namespace xdbft::ft {
namespace {

using plan::Plan;

bool BitIdentical(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

Plan TpchPlan(tpch::TpchQuery q) {
  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 10.0;
  auto plan = tpch::BuildQuery(q, cfg);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

FtCostContext MakeContext(bool wal) {
  FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(10, 1200.0, 1.0);
  if (wal) {
    ctx.model.wal_enabled = true;
    ctx.model.wal_write_cost = 0.3;
  }
  return ctx;
}

constexpr tpch::TpchQuery kQueries[] = {
    tpch::TpchQuery::kQ1, tpch::TpchQuery::kQ3, tpch::TpchQuery::kQ5};

TEST(SchemeDeterminismTest, BitIdenticalAtAnyThreadCount) {
  for (const tpch::TpchQuery q : kQueries) {
    const Plan plan = TpchPlan(q);
    for (const SchemeKind kind : kAllSchemeKinds) {
      const FtCostContext ctx =
          MakeContext(kind == SchemeKind::kWriteAheadLineage);
      EnumerationOptions seq;
      seq.num_threads = 1;
      auto golden = ApplyScheme(kind, plan, ctx, seq);
      ASSERT_TRUE(golden.ok())
          << SchemeKindName(kind) << ": " << golden.status();
      for (int threads : {2, 4, 0}) {
        EnumerationOptions par;
        par.num_threads = threads;
        auto got = ApplyScheme(kind, plan, ctx, par);
        ASSERT_TRUE(got.ok())
            << SchemeKindName(kind) << ": " << got.status();
        EXPECT_EQ(got->kind, golden->kind);
        EXPECT_EQ(got->recovery, golden->recovery);
        EXPECT_EQ(got->plan_index, golden->plan_index);
        EXPECT_TRUE(got->config == golden->config)
            << SchemeKindName(kind) << " threads=" << threads;
        EXPECT_TRUE(
            BitIdentical(got->estimated_cost, golden->estimated_cost))
            << SchemeKindName(kind) << " threads=" << threads << ": "
            << got->estimated_cost << " vs " << golden->estimated_cost;
      }
    }
  }
}

TEST(SchemeDeterminismTest, WalEnabledCostBasedDeterministic) {
  // The cost-based search with the WAL model switched on gates pruning
  // rules 1/2 off and reprices rule 3 on the durable runtime — the
  // config and cost must still be worker-count invariant.
  const Plan plan = TpchPlan(tpch::TpchQuery::kQ5);
  const FtCostContext ctx = MakeContext(/*wal=*/true);
  EnumerationOptions seq;
  seq.num_threads = 1;
  auto golden = ApplyScheme(SchemeKind::kCostBased, plan, ctx, seq);
  ASSERT_TRUE(golden.ok()) << golden.status();
  EXPECT_EQ(golden->recovery, RecoveryMode::kWalReplay);
  for (int threads : {2, 4, 0}) {
    EnumerationOptions par;
    par.num_threads = threads;
    auto got = ApplyScheme(SchemeKind::kCostBased, plan, ctx, par);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->config == golden->config) << threads;
    EXPECT_TRUE(BitIdentical(got->estimated_cost, golden->estimated_cost))
        << threads;
  }
}

}  // namespace
}  // namespace xdbft::ft
