// Closed-form failure mathematics of the cost model (paper §3.5 and §1
// footnote 1): success probabilities under Poisson failure arrivals, the
// expected wasted runtime per failure w(c) (Eq. 2-4), the attempts percentile
// a(c) (Eq. 5-6) and the per-operator total runtime T(c) (Eq. 8).
//
// Correlated failures (arXiv:1508.04907): beyond the independent per-node
// Poisson process, a *burst* process fires with rate lambda_g and takes down
// a `burst_hit_fraction` share of the executing group in one event. For the
// operator this is an additional exponential hazard: the effective failure
// rate becomes 1/mtbf_cost + burst_hit_fraction * burst_rate_cost, and the
// whole Eq. 2-8 machinery applies to the combined process. With
// burst_rate_cost == 0 every formula degrades bit-for-bit to the independent
// model.
#pragma once

#include "common/status.h"

namespace xdbft::ft {

/// \brief Parameters of the failure process as seen by a partition-parallel
/// operator, in internal cost units (seconds x CONST_cost).
///
/// `mtbf_cost` must already be the *effective* MTBF of the executing node
/// group: with n independent nodes of per-node MTBF M, the first failure
/// arrives with rate n/M, i.e. mtbf_cost = M * CONST_cost / n.
struct FailureParams {
  double mtbf_cost = 86400.0;
  double mttr_cost = 1.0;
  /// Desired success probability S for the attempts percentile (Eq. 6).
  double success_target = 0.95;
  /// Use exact Eq. 3 instead of the t/2 approximation (Eq. 4) for w(c).
  bool exact_wasted_time = false;

  /// Rate of correlated burst events per cost unit (lambda_g in the
  /// correlated model); 0 disables the correlated term entirely.
  double burst_rate_cost = 0.0;
  /// Fraction of the executing group a single burst takes down (fan-out).
  /// Scales the burst hazard the operator actually experiences; must be in
  /// (0, 1] (irrelevant while burst_rate_cost == 0).
  double burst_hit_fraction = 1.0;

  /// \brief Burst hazard per cost unit experienced by one operator:
  /// burst_hit_fraction * burst_rate_cost.
  double burst_hazard() const { return burst_hit_fraction * burst_rate_cost; }

  /// \brief Combined effective MTBF: 1 / (1/mtbf_cost + burst_hazard()).
  /// Returns mtbf_cost *exactly* (no reciprocal round-trip) when the burst
  /// hazard is zero, so zero correlation is bit-identical to the
  /// independent model.
  double effective_mtbf_cost() const;

  /// \brief Share of failures attributable to bursts:
  /// burst_hazard() / (1/mtbf_cost + burst_hazard()), in [0, 1). Used to
  /// price shared-fate re-reads: a burst that kills an operator likely also
  /// killed its materialized inputs.
  double burst_failure_share() const;

  Status Validate() const;
};

/// \brief gamma(c) = e^{-t/MTBF}: probability an operator of duration t
/// completes without a failure (paper §3.5).
double SuccessProbability(double t, double mtbf_cost);

/// \brief eta(c) = 1 - gamma(c): probability of at least one failure while
/// the operator runs. Non-positive / non-finite mtbf_cost means failures are
/// certain for any t > 0.
double FailureProbability(double t, double mtbf_cost);

/// \brief Exact average wasted runtime per failure, Eq. 3:
///   w = MTBF - t / (e^{t/MTBF} - 1).
/// Numerically stable for t << MTBF (uses expm1) and saturates to MTBF for
/// t >> MTBF instead of overflowing e^{t/MTBF}.
double WastedTimeExact(double t, double mtbf_cost);

/// \brief The t/2 approximation of w(c) (Eq. 4), used by the paper's cost
/// model: already for MTBF > t the exact value is close to t/2.
double WastedTimeApprox(double t);

/// \brief w(c) under the given parameters (exact or approximate), using the
/// effective (burst-adjusted) MTBF.
double WastedTime(double t, const FailureParams& params);

/// \brief a(c), Eq. 6: number of *additional* attempts (beyond the first)
/// needed so the operator succeeds with probability >= S:
///   a = max(ln(1 - S) / ln(eta) - 1, 0).
/// Returns 0 when eta == 0 (no failures possible). success_target == 1.0 is
/// clamped one ulp below 1 so the result stays finite for finite t/mtbf.
double ExpectedAttempts(double t, double mtbf_cost, double success_target);

/// \brief Per-attempt recovery terms of T(c) beyond plain Eq. 8.
struct RecoveryTerms {
  /// Share of the wasted time w(c) a failed attempt re-pays. Write-ahead
  /// lineage (arXiv:2403.08062) logs lineage before results flow
  /// downstream, so a retry replays the logged frontier instead of
  /// recomputing it; must be in [0, 1], and 1 is plain recomputation.
  double replay_factor = 1.0;
  /// Extra charge per attempt (shared-fate refetch of materialized
  /// inputs); must be >= 0.
  double extra_cost_per_attempt = 0.0;
};

/// \brief T(c), Eq. 8 — the operator's total runtime under mid-query
/// failures at the S-percentile, priced against the effective
/// (burst-adjusted) MTBF:
///   T = t + a * (replay_factor * w) + a * MTTR [+ a * extra].
/// Under write-ahead lineage `t` must already include the log-write
/// overhead (the durable runtime). The default terms are plain Eq. 8,
/// bit for bit.
double OperatorTotalRuntime(double t, const FailureParams& params,
                            const RecoveryTerms& terms = {});

/// \brief Probability that a query of duration t finishes without any
/// failure on a cluster of n nodes with per-node MTBF (Fig. 1):
///   P = e^{-t n / MTBF}.
/// Degenerate inputs are handled defensively: num_nodes <= 0 means no nodes
/// can fail (P = 1); a non-positive or non-finite MTBF means failures are
/// certain (P = 0 for t > 0).
double QuerySuccessProbability(double t, double mtbf_per_node, int num_nodes);

/// \brief Cumulative probability that an operator succeeds within N
/// additional attempts (Eq. 5 closed form): 1 - eta^{N+1}.
/// `attempts` below -1 is clamped to -1 (zero total attempts -> P = 0);
/// fractional attempts interpolate the geometric tail continuously.
double SuccessWithinAttempts(double t, double mtbf_cost, double attempts);

}  // namespace xdbft::ft
