// Unit tests of the crosscheck harness itself: the reproducer JSON
// round-trips, a handful of seeds run violation-free (the real sweep is
// the crosscheck_quick / crosscheck_fuzz ctest entries), the abort path
// is actually exercised, and a written reproducer replays.
#include "validate/crosscheck.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "plan/plan_text.h"

namespace xdbft::validate {
namespace {

TEST(CrosscheckTest, FewSeedsRunViolationFree) {
  CrosscheckOptions options;
  options.seeds = 4;
  options.traces = 4;
  options.quick = true;
  options.write_reproducers = false;
  auto report = RunCrosscheck(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->seeds_run, 4);
  EXPECT_EQ(report->violations, 0)
      << (report->messages.empty() ? "" : report->messages.front());
  EXPECT_GT(report->checks_run, 0);
  // The abort-cap check derives a harsh case per seed; across 4 seeds the
  // abort path must have fired (deterministic in the seeds).
  EXPECT_GT(report->aborts_observed, 0);
}

TEST(CrosscheckTest, CheckRegistryIsQueryable) {
  const std::vector<std::string> names = CheckNames();
  EXPECT_GE(names.size(), 10u);
  ReproCase c = MakeSimCase(1, 2);
  c.check = "analytic_bounds";
  auto v = RunCheck("analytic_bounds", c);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(v->has_value());
  EXPECT_FALSE(RunCheck("no_such_check", c).ok());
  // Kind mismatch: executor checks reject sim cases and vice versa.
  EXPECT_FALSE(RunCheck("executor_differential", c).ok());
}

TEST(CrosscheckTest, SimCaseIsDeterministicPerSeed) {
  ReproCase a = MakeSimCase(17, 8);
  ReproCase b = MakeSimCase(17, 8);
  EXPECT_EQ(plan::PlanToText(a.plan), plan::PlanToText(b.plan));
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.cluster.mtbf_seconds, b.cluster.mtbf_seconds);
  EXPECT_EQ(a.trace.base_seed, b.trace.base_seed);
  ReproCase other = MakeSimCase(18, 8);
  EXPECT_NE(a.trace.base_seed, other.trace.base_seed);
}

TEST(CrosscheckTest, ReproducerJsonRoundTrips) {
  ReproCase c = MakeSimCase(23, 8);
  c.check = "runtime_lower_bound";
  c.detail = "some \"quoted\" detail";
  c.minimized = true;
  auto parsed = ReproFromJson(ReproToJson(c));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->check, c.check);
  EXPECT_EQ(parsed->detail, c.detail);
  EXPECT_EQ(parsed->seed, c.seed);
  EXPECT_TRUE(parsed->minimized);
  EXPECT_EQ(parsed->kind, "sim");
  EXPECT_EQ(plan::PlanToText(parsed->plan), plan::PlanToText(c.plan));
  EXPECT_EQ(parsed->config, c.config);
  EXPECT_EQ(parsed->cluster.num_nodes, c.cluster.num_nodes);
  EXPECT_DOUBLE_EQ(parsed->cluster.mtbf_seconds, c.cluster.mtbf_seconds);
  EXPECT_DOUBLE_EQ(parsed->sim.monitoring_interval,
                   c.sim.monitoring_interval);
  EXPECT_EQ(parsed->trace.kind, c.trace.kind);
  EXPECT_EQ(parsed->trace.count, c.trace.count);
  EXPECT_EQ(parsed->trace.base_seed, c.trace.base_seed);
  if (c.trace.kind == TraceKind::kBurst) {
    EXPECT_DOUBLE_EQ(parsed->trace.burst.mean_interval,
                     c.trace.burst.mean_interval);
  }
}

TEST(CrosscheckTest, BurstSpecSurvivesRoundTrip) {
  // Find a seed whose case uses burst traces (p = 0.25 per seed).
  for (uint64_t seed = 1; seed < 64; ++seed) {
    ReproCase c = MakeSimCase(seed, 4);
    if (c.trace.kind != TraceKind::kBurst) continue;
    c.check = "abort_cap";
    auto parsed = ReproFromJson(ReproToJson(c));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->trace.kind, TraceKind::kBurst);
    EXPECT_DOUBLE_EQ(parsed->trace.burst.width, c.trace.burst.width);
    EXPECT_EQ(parsed->trace.burst.max_nodes, c.trace.burst.max_nodes);
    return;
  }
  FAIL() << "no burst case in the first 64 seeds";
}

TEST(CrosscheckTest, WrittenReproducerReplaysClean) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "xdbft_crosscheck_test")
          .string();
  ReproCase c = MakeSimCase(31, 4);
  c.check = "analytic_bounds";
  c.detail = "synthetic";
  auto path = WriteReproducer(dir, c);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto loaded = LoadReproducer(*path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->check, "analytic_bounds");
  // The underlying code is healthy, so the recorded "violation" must not
  // reproduce.
  auto reproduced = ReplayReproducer(*path);
  ASSERT_TRUE(reproduced.ok()) << reproduced.status().ToString();
  EXPECT_FALSE(*reproduced);
  std::filesystem::remove_all(dir);
}

TEST(CrosscheckTest, MinimizerPreservesCaseValidity) {
  // On a healthy tree nothing fails, so the minimizer must return the
  // case intact (no shrink step can "succeed") and still valid.
  ReproCase c = MakeSimCase(11, 8);
  c.check = "analytic_bounds";
  auto min = MinimizeCase(c);
  ASSERT_TRUE(min.ok()) << min.status().ToString();
  EXPECT_TRUE(min->minimized);
  EXPECT_EQ(min->plan.num_nodes(), c.plan.num_nodes());
  EXPECT_TRUE(min->config.Validate(min->plan).ok());
}

}  // namespace
}  // namespace xdbft::validate
