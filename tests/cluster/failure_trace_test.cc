#include "cluster/failure_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace xdbft::cluster {
namespace {

TEST(FailureTraceTest, NeverFailsReturnsInfinity) {
  FailureTrace t;
  EXPECT_EQ(t.NextFailureAfter(0.0), kNeverFails);
  EXPECT_EQ(t.NextFailureAfter(1e12), kNeverFails);
  EXPECT_EQ(t.CountFailuresUntil(1e12), 0u);
}

TEST(FailureTraceTest, DeterministicForSeed) {
  FailureTrace a(100.0, 7), b(100.0, 7);
  for (double t = 0.0; t < 1000.0; t += 37.0) {
    EXPECT_DOUBLE_EQ(a.NextFailureAfter(t), b.NextFailureAfter(t));
  }
}

TEST(FailureTraceTest, FailuresAreStrictlyAfterQueryTime) {
  FailureTrace t(50.0, 3);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double f = t.NextFailureAfter(now);
    EXPECT_GT(f, now);
    now = f;
  }
}

TEST(FailureTraceTest, NextFailureIsIdempotent) {
  FailureTrace t(50.0, 3);
  const double f1 = t.NextFailureAfter(10.0);
  const double f2 = t.NextFailureAfter(10.0);
  EXPECT_DOUBLE_EQ(f1, f2);
}

TEST(FailureTraceTest, QueryingFarAheadExtendsLazily) {
  FailureTrace t(10.0, 11);
  const double far = t.NextFailureAfter(1e6);
  EXPECT_GT(far, 1e6);
  // Going back in time still works on the generated prefix.
  EXPECT_LT(t.NextFailureAfter(0.0), far);
}

TEST(FailureTraceTest, MeanInterArrivalMatchesMtbf) {
  const double mtbf = 250.0;
  FailureTrace t(mtbf, 101);
  const double horizon = mtbf * 20000;
  const size_t count = t.CountFailuresUntil(horizon);
  EXPECT_NEAR(static_cast<double>(count), horizon / mtbf,
              horizon / mtbf * 0.05);
}

TEST(FailureTraceTest, CountFailuresMonotone) {
  FailureTrace t(10.0, 5);
  size_t prev = 0;
  for (double h = 0.0; h <= 1000.0; h += 100.0) {
    const size_t c = t.CountFailuresUntil(h);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(ClusterTraceTest, GeneratesOneTracePerNode) {
  auto stats = cost::MakeCluster(7, 1000.0);
  ClusterTrace ct = ClusterTrace::Generate(stats, 1);
  EXPECT_EQ(ct.num_nodes(), 7);
}

TEST(ClusterTraceTest, NodesFailIndependently) {
  auto stats = cost::MakeCluster(2, 1000.0);
  ClusterTrace ct = ClusterTrace::Generate(stats, 1);
  EXPECT_NE(ct.node(0).NextFailureAfter(0.0),
            ct.node(1).NextFailureAfter(0.0));
}

TEST(ClusterTraceTest, NextFailureAfterPicksEarliestNode) {
  auto stats = cost::MakeCluster(5, 500.0);
  ClusterTrace ct = ClusterTrace::Generate(stats, 2);
  int which = -1;
  const double f = ct.NextFailureAfter(0.0, &which);
  ASSERT_GE(which, 0);
  ASSERT_LT(which, 5);
  EXPECT_DOUBLE_EQ(ct.node(which).NextFailureAfter(0.0), f);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(ct.node(i).NextFailureAfter(0.0), f);
  }
}

TEST(ClusterTraceTest, EffectiveClusterFailureRateScalesWithNodes) {
  // With n nodes the cluster-level failure rate is ~n/MTBF (the premise of
  // Fig. 1 and of the effective-MTBF used by the cost model).
  const double mtbf = 1000.0;
  auto stats = cost::MakeCluster(10, mtbf);
  ClusterTrace ct = ClusterTrace::Generate(stats, 3);
  int count = 0;
  double t = 0.0;
  const double horizon = mtbf * 2000;
  while (true) {
    t = ct.NextFailureAfter(t);
    if (t > horizon) break;
    ++count;
  }
  const double expected = horizon / (mtbf / 10.0);
  EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.05);
}

TEST(GenerateTraceSetTest, TracesAreIndependentAndDeterministic) {
  auto stats = cost::MakeCluster(3, 100.0);
  auto set1 = GenerateTraceSet(stats, 10, 42);
  auto set2 = GenerateTraceSet(stats, 10, 42);
  ASSERT_EQ(set1.size(), 10u);
  // Deterministic: same seeds -> same traces.
  for (size_t i = 0; i < set1.size(); ++i) {
    EXPECT_DOUBLE_EQ(set1[i].NextFailureAfter(0.0),
                     set2[i].NextFailureAfter(0.0));
  }
  // Independent: different trace indices differ.
  EXPECT_NE(set1[0].NextFailureAfter(0.0), set1[1].NextFailureAfter(0.0));
}

// ClusterTrace::NextFailureAfter keeps a merged view of the node traces.
// Its oracle is the brute-force scan: every node's own next failure, the
// lowest node index winning ties, (kNeverFails, -1) when no node fails.
std::pair<double, int> OracleNext(ClusterTrace& oracle, double t) {
  std::pair<double, int> best{kNeverFails, -1};
  for (int i = 0; i < oracle.num_nodes(); ++i) {
    const double f = oracle.node(i).NextFailureAfter(t);
    if (f < best.first) best = {f, i};
  }
  return best;
}

// Queries `merged` at every time in `times`, in order, against the oracle
// over an untouched copy of the same trace.
void ExpectMatchesOracle(ClusterTrace merged, ClusterTrace oracle,
                         const std::vector<double>& times) {
  for (size_t q = 0; q < times.size(); ++q) {
    int which = -2;
    const double f = merged.NextFailureAfter(times[q], &which);
    const std::pair<double, int> want = OracleNext(oracle, times[q]);
    ASSERT_EQ(f, want.first) << "query " << q << " at t=" << times[q];
    ASSERT_EQ(which, want.second) << "query " << q << " at t=" << times[q];
  }
}

// A forward walk the way the full-restart simulation queries: from each
// failure, on to a point after it (sometimes exactly the failure, sometimes
// the same time twice), with occasional long jumps.
std::vector<double> MonotoneWalk(ClusterTrace trace, uint64_t seed,
                                 int steps) {
  Rng rng(seed);
  std::vector<double> times;
  double t = 0.0;
  for (int i = 0; i < steps; ++i) {
    times.push_back(t);
    const double f = trace.NextFailureAfter(t);
    switch (rng.NextBounded(4)) {
      case 0:  // restart exactly at the failure
        if (f != kNeverFails) t = f;
        break;
      case 1:  // the same query again
        break;
      case 2:  // a long jump ahead
        t += 500.0 * rng.NextDouble();
        break;
      default:  // detection + MTTR after the failure
        if (f != kNeverFails) t = f + 2.0 * rng.NextDouble();
        break;
    }
  }
  return times;
}

// Random times in [0, horizon): most queries move backwards.
std::vector<double> Rewinds(uint64_t seed, int count, double horizon) {
  Rng rng(seed);
  std::vector<double> times;
  for (int i = 0; i < count; ++i) times.push_back(horizon * rng.NextDouble());
  return times;
}

// The three trace kinds, including simultaneous failures on two nodes.
std::vector<std::pair<std::string, ClusterTrace>> MergedViewTraces() {
  const cost::ClusterStats stats = cost::MakeCluster(8, 300.0);
  BurstOptions bursts;
  bursts.mean_interval = 50.0;
  bursts.horizon = 5000.0;
  bursts.width = 0.0;  // every victim of a burst fails at the same instant
  bursts.background_mtbf = 400.0;
  return {
      {"Generate", ClusterTrace::Generate(stats, 17)},
      {"GenerateWithBursts",
       ClusterTrace::GenerateWithBursts(stats, 17, bursts)},
      {"FromScheduled", ClusterTrace::FromScheduled({{5.0, 9.0, 40.0},
                                                     {3.0, 9.0},
                                                     {},
                                                     {5.0, 12.0, 40.0}})},
  };
}

TEST(ClusterTraceMergedViewTest, MonotoneWalksMatchThePerNodeMinimum) {
  for (auto& [name, trace] : MergedViewTraces()) {
    SCOPED_TRACE(name);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectMatchesOracle(trace, trace, MonotoneWalk(trace, seed, 400));
    }
  }
}

TEST(ClusterTraceMergedViewTest, RewindsMatchThePerNodeMinimum) {
  for (auto& [name, trace] : MergedViewTraces()) {
    SCOPED_TRACE(name);
    ExpectMatchesOracle(trace, trace, Rewinds(5, 300, 6000.0));
    // Walk forward, rewind to the start, walk forward again on one trace.
    std::vector<double> times = MonotoneWalk(trace, 6, 200);
    const std::vector<double> again = MonotoneWalk(trace, 7, 200);
    times.insert(times.end(), again.begin(), again.end());
    ExpectMatchesOracle(trace, trace, times);
  }
}

TEST(ClusterTraceMergedViewTest, SimultaneousFailuresGoToTheLowestNode) {
  ClusterTrace trace =
      ClusterTrace::FromScheduled({{5.0, 9.0}, {5.0}, {3.0, 9.0}});
  int which = -2;
  EXPECT_EQ(trace.NextFailureAfter(0.0, &which), 3.0);
  EXPECT_EQ(which, 2);
  EXPECT_EQ(trace.NextFailureAfter(3.0, &which), 5.0);
  EXPECT_EQ(which, 0);
  EXPECT_EQ(trace.NextFailureAfter(5.0, &which), 9.0);
  EXPECT_EQ(which, 0);
  EXPECT_EQ(trace.NextFailureAfter(9.0, &which), kNeverFails);
  EXPECT_EQ(which, -1);
  EXPECT_EQ(trace.NextFailureAfter(4.0, &which), 5.0);  // rewind
  EXPECT_EQ(which, 0);
}

TEST(ClusterTraceMergedViewTest, NeverFailingClustersReportNoNode) {
  const ClusterTrace never[] = {
      ClusterTrace::FromScheduled({{}, {}, {}}),
      ClusterTrace::FromScheduled({}),
      ClusterTrace::Generate(cost::MakeCluster(4, kNeverFails), 3),
  };
  for (ClusterTrace trace : never) {
    for (double t : {0.0, 10.0, 5.0, 1e12, 0.0}) {
      int which = -2;
      EXPECT_EQ(trace.NextFailureAfter(t, &which), kNeverFails);
      EXPECT_EQ(which, -1);
    }
  }
}

}  // namespace
}  // namespace xdbft::cluster
