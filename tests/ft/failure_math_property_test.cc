// Property tests of the closed-form failure math (Eq. 3-8): randomized
// sweeps over the parameter space instead of hand-picked points, pinning
// the numerical edges the crosscheck harness exercises — the small-x
// series branch of the exact wasted time, the CDF shape of the attempts
// bound and the eta -> 1 regime of the attempts percentile.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "ft/failure_math.h"

namespace xdbft::ft {
namespace {

double LogUniform(Rng& rng, double lo, double hi) {
  return lo * std::exp(rng.NextDouble() * std::log(hi / lo));
}

TEST(FailureMathPropertyTest, WastedTimeExactContinuousAcrossSeriesCutoff) {
  // The implementation switches to a series expansion below x = t/MTBF =
  // 1e-9; values straddling the cutoff must agree to the expansion's own
  // accuracy, and both must sit at the t/2 limit.
  Rng rng(20240801);
  for (int iter = 0; iter < 200; ++iter) {
    const double mtbf = LogUniform(rng, 1e-3, 1e9);
    const double t_cut = mtbf * 1e-9;
    const double below = WastedTimeExact(t_cut * (1.0 - 1e-6), mtbf);
    const double above = WastedTimeExact(t_cut * (1.0 + 1e-6), mtbf);
    ASSERT_NEAR(below, above, std::abs(below) * 1e-5 + 1e-300)
        << "mtbf=" << mtbf;
    ASSERT_NEAR(below, t_cut / 2.0, t_cut * 1e-5) << "mtbf=" << mtbf;
  }
}

TEST(FailureMathPropertyTest, WastedTimeExactBelowHalfAndBounded) {
  // Eq. 3 satisfies 0 <= w(c) <= min(t/2, MTBF) for all t > 0: losing on
  // average more than half the attempt (or more than one mean failure
  // interval) is impossible. The MTBF bound is attained (in doubles) for
  // t >> MTBF, where t/(e^{t/MTBF} - 1) underflows.
  Rng rng(20240802);
  for (int iter = 0; iter < 500; ++iter) {
    const double mtbf = LogUniform(rng, 1e-3, 1e6);
    const double t = LogUniform(rng, mtbf * 1e-12, mtbf * 1e4);
    const double w = WastedTimeExact(t, mtbf);
    ASSERT_GE(w, 0.0) << "t=" << t << " mtbf=" << mtbf;
    // Slack: for x just above the series cutoff, MTBF - t/expm1(x)
    // cancels catastrophically and carries an absolute error ~ MTBF*eps.
    ASSERT_LE(w, t / 2.0 * (1.0 + 1e-9) + mtbf * 1e-15)
        << "t=" << t << " mtbf=" << mtbf;
    ASSERT_LE(w, mtbf) << "t=" << t << " mtbf=" << mtbf;
  }
}

TEST(FailureMathPropertyTest, SuccessWithinAttemptsIsACdfInAttempts) {
  Rng rng(20240803);
  for (int iter = 0; iter < 200; ++iter) {
    const double mtbf = LogUniform(rng, 1e-2, 1e6);
    const double t = LogUniform(rng, mtbf * 1e-3, mtbf * 10.0);
    double prev = -1.0;
    for (double attempts : {0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0}) {
      const double p = SuccessWithinAttempts(t, mtbf, attempts);
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0 + 1e-12);
      ASSERT_GE(p, prev - 1e-12)
          << "t=" << t << " mtbf=" << mtbf << " attempts=" << attempts;
      prev = p;
    }
  }
}

TEST(FailureMathPropertyTest, ExpectedAttemptsFiniteAsEtaApproachesOne) {
  // For x = t/MTBF in the tens, eta rounds to exactly 1.0 in double; the
  // log1p formulation must still produce the (huge but representable)
  // true value instead of infinity. True overflow (x beyond ~745, where
  // a ~ -ln(1-S) e^x exceeds DBL_MAX) is the only admissible infinity.
  for (double x : {10.0, 36.0, 40.0, 50.0, 100.0, 500.0, 700.0}) {
    const double a = ExpectedAttempts(x, 1.0, 0.95);
    ASSERT_TRUE(std::isfinite(a)) << "x=" << x;
    ASSERT_GE(a, 0.0) << "x=" << x;
    // Asymptote: a -> -ln(1-S) e^x - 1; at these x the first-order term
    // dominates, so a factor-two band is a safe envelope.
    const double asymptote = -std::log(0.05) * std::exp(x);
    ASSERT_GT(a, asymptote * 0.5) << "x=" << x;
    ASSERT_LT(a, asymptote * 2.0) << "x=" << x;
  }
  EXPECT_FALSE(std::isnan(ExpectedAttempts(1e308, 1.0, 0.95)));
}

TEST(FailureMathPropertyTest, ExpectedAttemptsMonotoneInDuration) {
  Rng rng(20240804);
  for (int iter = 0; iter < 200; ++iter) {
    const double mtbf = LogUniform(rng, 1e-2, 1e6);
    double prev = -1.0;
    for (double frac : {0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0}) {
      const double a = ExpectedAttempts(mtbf * frac, mtbf, 0.95);
      ASSERT_GE(a, prev - 1e-12) << "mtbf=" << mtbf << " frac=" << frac;
      ASSERT_FALSE(std::isnan(a));
      prev = a;
    }
  }
}

}  // namespace
}  // namespace xdbft::ft
