#include "ft/failure_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/math_util.h"

namespace xdbft::ft {
namespace {

TEST(FailureMathTest, SuccessProbabilityBasics) {
  EXPECT_DOUBLE_EQ(SuccessProbability(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(SuccessProbability(-1.0, 100.0), 1.0);
  EXPECT_NEAR(SuccessProbability(100.0, 100.0), std::exp(-1.0), 1e-12);
  EXPECT_GT(SuccessProbability(1.0, 100.0), SuccessProbability(2.0, 100.0));
}

TEST(FailureMathTest, EtaGammaComplementary) {
  for (double t : {0.5, 5.0, 50.0, 500.0}) {
    EXPECT_NEAR(SuccessProbability(t, 60.0) + FailureProbability(t, 60.0),
                1.0, 1e-12);
  }
}

// Table 2 of the paper: MTBF_cost = 60, t(c) in {4, 3, 1, 2}.
TEST(FailureMathTest, PaperTable2Gamma) {
  EXPECT_NEAR(SuccessProbability(4.0, 60.0), 0.94, 0.005);
  EXPECT_NEAR(SuccessProbability(3.0, 60.0), 0.95, 0.005);
  EXPECT_NEAR(SuccessProbability(1.0, 60.0), 0.98, 0.005);
  EXPECT_NEAR(SuccessProbability(2.0, 60.0), 0.96, 0.0075);
}

TEST(FailureMathTest, PaperTable2WastedTime) {
  // w(c) ~= t(c)/2 for MTBF > t (Eq. 4).
  EXPECT_DOUBLE_EQ(WastedTimeApprox(4.0), 2.0);
  EXPECT_DOUBLE_EQ(WastedTimeApprox(3.0), 1.5);
  EXPECT_DOUBLE_EQ(WastedTimeApprox(1.0), 0.5);
  EXPECT_DOUBLE_EQ(WastedTimeApprox(2.0), 1.0);
}

TEST(FailureMathTest, PaperTable2Attempts) {
  // Only the longest operator (t=4) needs additional attempts at S=0.95;
  // exact value with unrounded eta is ~0.0929 (the paper's 0.0648 comes
  // from rounding gamma to 0.94 first).
  const double a4 = ExpectedAttempts(4.0, 60.0, 0.95);
  EXPECT_NEAR(a4, 0.0929, 0.001);
  EXPECT_DOUBLE_EQ(ExpectedAttempts(3.0, 60.0, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedAttempts(1.0, 60.0, 0.95), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedAttempts(2.0, 60.0, 0.95), 0.0);
}

TEST(FailureMathTest, PaperTable2TotalRuntime) {
  FailureParams p;
  p.mtbf_cost = 60.0;
  p.mttr_cost = 0.0;
  p.success_target = 0.95;
  EXPECT_NEAR(OperatorTotalRuntime(4.0, p), 4.186, 0.002);
  EXPECT_DOUBLE_EQ(OperatorTotalRuntime(3.0, p), 3.0);
  EXPECT_DOUBLE_EQ(OperatorTotalRuntime(1.0, p), 1.0);
  EXPECT_DOUBLE_EQ(OperatorTotalRuntime(2.0, p), 2.0);
}

TEST(FailureMathTest, WastedTimeExactConvergesToHalf) {
  // Limit analysis in the paper: w(c) -> t/2 as MTBF -> infinity, and
  // already for MTBF > t the exact value is close to t/2.
  const double t = 10.0;
  EXPECT_NEAR(WastedTimeExact(t, 1e9), t / 2.0, 1e-6);
  EXPECT_NEAR(WastedTimeExact(t, 20.0), t / 2.0, t * 0.05);
}

TEST(FailureMathTest, WastedTimeExactBelowHalf) {
  // The exact expected waste is always below t/2 (failures arrive earlier
  // in expectation under the exponential law).
  for (double t : {0.1, 1.0, 10.0, 100.0}) {
    for (double mtbf : {1.0, 10.0, 1000.0}) {
      EXPECT_LE(WastedTimeExact(t, mtbf), t / 2.0 + 1e-12)
          << "t=" << t << " mtbf=" << mtbf;
      EXPECT_GE(WastedTimeExact(t, mtbf), 0.0);
    }
  }
}

TEST(FailureMathTest, WastedTimeExactSmallArgumentStable) {
  // t/MTBF ~ 1e-12 must not lose precision (naive formula would).
  const double w = WastedTimeExact(1e-3, 1e9);
  EXPECT_NEAR(w, 5e-4, 1e-9);
}

TEST(FailureMathTest, WastedTimeSelectsFormula) {
  FailureParams p;
  p.mtbf_cost = 10.0;
  p.exact_wasted_time = false;
  EXPECT_DOUBLE_EQ(WastedTime(6.0, p), 3.0);
  p.exact_wasted_time = true;
  EXPECT_LT(WastedTime(6.0, p), 3.0);
}

TEST(FailureMathTest, AttemptsMonotoneInRuntime) {
  double prev = -1.0;
  for (double t = 1.0; t <= 200.0; t += 10.0) {
    const double a = ExpectedAttempts(t, 60.0, 0.95);
    EXPECT_GE(a, prev);
    prev = a;
  }
}

TEST(FailureMathTest, AttemptsMonotoneInMtbf) {
  double prev = std::numeric_limits<double>::infinity();
  for (double mtbf : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    const double a = ExpectedAttempts(30.0, mtbf, 0.95);
    EXPECT_LE(a, prev);
    prev = a;
  }
}

TEST(FailureMathTest, AttemptsZeroWhenNoFailuresPossible) {
  EXPECT_DOUBLE_EQ(ExpectedAttempts(0.0, 60.0, 0.95), 0.0);
}

TEST(FailureMathTest, SuccessWithinAttemptsMatchesTarget) {
  // By construction, running a(c) extra attempts achieves at least S.
  for (double t : {30.0, 60.0, 120.0, 600.0}) {
    const double a = ExpectedAttempts(t, 60.0, 0.95);
    EXPECT_GE(SuccessWithinAttempts(t, 60.0, a), 0.95 - 1e-9) << t;
  }
}

TEST(FailureMathTest, TotalRuntimeIncludesMttr) {
  FailureParams p;
  p.mtbf_cost = 60.0;
  p.success_target = 0.95;
  p.mttr_cost = 0.0;
  const double without = OperatorTotalRuntime(40.0, p);
  p.mttr_cost = 10.0;
  const double with = OperatorTotalRuntime(40.0, p);
  const double a = ExpectedAttempts(40.0, 60.0, 0.95);
  EXPECT_NEAR(with - without, a * 10.0, 1e-9);
}

// Figure 1: probability of success for the four cluster setups. At 60 min
// runtime: cluster 1 (MTBF=1h, n=100) is ~0; cluster 4 (MTBF=1wk, n=10)
// is high.
TEST(FailureMathTest, Fig1ClusterSetups) {
  const double hour = 3600.0, week = 7 * 86400.0;
  const double t = 3600.0;  // 60-minute query
  EXPECT_LT(QuerySuccessProbability(t, hour, 100), 1e-10);
  EXPECT_NEAR(QuerySuccessProbability(t, week, 100), std::exp(-100.0 / 168),
              1e-9);
  EXPECT_NEAR(QuerySuccessProbability(t, hour, 10), std::exp(-10.0), 1e-9);
  EXPECT_GT(QuerySuccessProbability(t, week, 10), 0.93);
}

TEST(FailureMathTest, ValidateRejectsBadParams) {
  FailureParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.mtbf_cost = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.mttr_cost = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.success_target = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.success_target = 1.0;
  EXPECT_FALSE(p.Validate().ok());
}

// --- Edge-case regression sweep (bugfix PR) ---

// num_nodes <= 0: no nodes can fail, P = 1 (used to divide by zero).
TEST(FailureMathTest, QuerySuccessProbabilityDegenerateNodes) {
  EXPECT_DOUBLE_EQ(QuerySuccessProbability(100.0, 3600.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QuerySuccessProbability(100.0, 3600.0, -3), 1.0);
}

// Non-positive / non-finite per-node MTBF: failures are certain.
TEST(FailureMathTest, QuerySuccessProbabilityDegenerateMtbf) {
  EXPECT_DOUBLE_EQ(QuerySuccessProbability(100.0, 0.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(QuerySuccessProbability(100.0, -5.0, 10), 0.0);
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(QuerySuccessProbability(100.0, nan, 10), 0.0);
}

// success_target == 1.0: ln(1 - S) used to be -inf; the clamp one ulp
// below 1 keeps a(c) finite for any finite t / mtbf.
TEST(FailureMathTest, ExpectedAttemptsAtCertainSuccessTarget) {
  const double a = ExpectedAttempts(30.0, 60.0, 1.0);
  EXPECT_TRUE(std::isfinite(a)) << a;
  EXPECT_GE(a, ExpectedAttempts(30.0, 60.0, 0.999999));
}

// t >> mtbf: e^{t/MTBF} used to overflow to inf and w(c) became NaN
// (inf - t/inf). Eq. 3 saturates to MTBF in that regime.
TEST(FailureMathTest, WastedTimeExactSaturatesForLongOperators) {
  EXPECT_DOUBLE_EQ(WastedTimeExact(1e6, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(WastedTimeExact(1e300, 1e-3), 1e-3);
  EXPECT_TRUE(std::isfinite(WastedTimeExact(800.0, 1.0)));
}

// Negative attempts clamp to -1 (zero total attempts -> P = 0);
// fractional attempts interpolate monotonically.
TEST(FailureMathTest, SuccessWithinAttemptsNegativeAndFractional) {
  EXPECT_DOUBLE_EQ(SuccessWithinAttempts(30.0, 60.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(SuccessWithinAttempts(30.0, 60.0, -7.5), 0.0);
  const double p0 = SuccessWithinAttempts(30.0, 60.0, 0.0);
  const double ph = SuccessWithinAttempts(30.0, 60.0, 0.5);
  const double p1 = SuccessWithinAttempts(30.0, 60.0, 1.0);
  EXPECT_GT(p0, 0.0);
  EXPECT_LT(p0, ph);
  EXPECT_LT(ph, p1);
}

// --- Correlated-failure model ---

TEST(FailureMathTest, EffectiveMtbfIsExactWithoutBursts) {
  FailureParams p;
  p.mtbf_cost = 12345.678;
  // Bit-identical, not just close: no 1/(1/x) round-trip.
  EXPECT_EQ(p.effective_mtbf_cost(), p.mtbf_cost);
  EXPECT_DOUBLE_EQ(p.burst_failure_share(), 0.0);
}

TEST(FailureMathTest, EffectiveMtbfCombinesHazards) {
  FailureParams p;
  p.mtbf_cost = 100.0;
  p.burst_rate_cost = 1.0 / 100.0;  // same rate again
  p.burst_hit_fraction = 1.0;
  EXPECT_NEAR(p.effective_mtbf_cost(), 50.0, 1e-12);
  EXPECT_NEAR(p.burst_failure_share(), 0.5, 1e-12);
  p.burst_hit_fraction = 0.5;  // half the bursts hit this operator
  EXPECT_NEAR(p.effective_mtbf_cost(), 200.0 / 3.0, 1e-12);
  EXPECT_NEAR(p.burst_failure_share(), 1.0 / 3.0, 1e-12);
}

TEST(FailureMathTest, BurstsRaiseTotalRuntime) {
  FailureParams independent;
  independent.mtbf_cost = 60.0;
  FailureParams bursty = independent;
  bursty.burst_rate_cost = 1.0 / 120.0;
  for (double t : {5.0, 20.0, 60.0}) {
    EXPECT_GE(OperatorTotalRuntime(t, bursty),
              OperatorTotalRuntime(t, independent))
        << t;
  }
  // Zero rate is the independent model bit-for-bit.
  bursty.burst_rate_cost = 0.0;
  EXPECT_EQ(OperatorTotalRuntime(17.0, bursty),
            OperatorTotalRuntime(17.0, independent));
}

TEST(FailureMathTest, ExtraPerAttemptChargeZeroIsIdentity) {
  FailureParams p;
  p.mtbf_cost = 60.0;
  // Zero extra (and unity replay) must reproduce Eq. 8 written out, in the
  // same summation order, bit for bit.
  const double a = ExpectedAttempts(40.0, p.mtbf_cost, p.success_target);
  const double eq8 = 40.0 + a * WastedTime(40.0, p) + a * p.mttr_cost;
  EXPECT_EQ(OperatorTotalRuntime(40.0, p), eq8);
  EXPECT_EQ(OperatorTotalRuntime(40.0, p, {1.0, 0.0}), eq8);
  EXPECT_GT(OperatorTotalRuntime(40.0, p, {1.0, 3.0}), eq8);
}

TEST(FailureMathTest, ReplayFactorDiscountsOnlyWastedTime) {
  FailureParams p;
  p.mtbf_cost = 60.0;
  const double a = ExpectedAttempts(40.0, p.mtbf_cost, p.success_target);
  EXPECT_EQ(OperatorTotalRuntime(40.0, p, {0.25, 0.0}),
            40.0 + a * (0.25 * WastedTime(40.0, p)) + a * p.mttr_cost);
}

TEST(FailureMathTest, ValidateRejectsBadBurstParams) {
  FailureParams p;
  p.burst_rate_cost = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.burst_rate_cost = std::nan("");
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.burst_rate_cost = 0.01;
  p.burst_hit_fraction = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p.burst_hit_fraction = 1.5;
  EXPECT_FALSE(p.Validate().ok());
  p.burst_hit_fraction = 0.5;
  EXPECT_TRUE(p.Validate().ok());
}

// Non-finite mtbf/mttr must be rejected, not priced as "never fails".
TEST(FailureMathTest, ValidateRejectsNonFinite) {
  FailureParams p;
  p.mtbf_cost = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.mttr_cost = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.Validate().ok());
  p = FailureParams{};
  p.mtbf_cost = std::nan("");
  EXPECT_FALSE(p.Validate().ok());
}

// Property sweep: T(c) is monotone non-decreasing in t for a range of
// MTBFs (a longer operator can never have a smaller 95th-percentile
// runtime).
class TotalRuntimeMonotone : public ::testing::TestWithParam<double> {};

TEST_P(TotalRuntimeMonotone, MonotoneInT) {
  FailureParams p;
  p.mtbf_cost = GetParam();
  p.mttr_cost = 1.0;
  double prev = 0.0;
  for (double t = 0.0; t <= 400.0; t += 2.0) {
    const double total = OperatorTotalRuntime(t, p);
    EXPECT_GE(total, prev - 1e-9) << "t=" << t << " mtbf=" << GetParam();
    prev = total;
  }
}

INSTANTIATE_TEST_SUITE_P(Mtbfs, TotalRuntimeMonotone,
                         ::testing::Values(10.0, 60.0, 360.0, 3600.0,
                                           86400.0));

}  // namespace
}  // namespace xdbft::ft
