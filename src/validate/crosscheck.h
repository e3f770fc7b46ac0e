// The differential validation harness behind tools/xdbft_crosscheck: for
// each seed it generates a random case (plan, cluster, materialization
// config, failure traces) and cross-checks the three implementations of
// the paper's model against each other —
//   (a) the analytic cost layer (ft::FtCostModel, Eq. 7-8),
//   (b) the discrete-event ClusterSimulator averaged over trace sets,
//   (c) the real FaultTolerantExecutor driven by an injector replaying a
//       trace's per-node failure counts —
// plus metamorphic properties none of them should violate: runtime lower
// bounds, RunMany aggregation vs a hand fold, abort-cap semantics,
// analytic MTBF/MTTR monotonicity, enumeration optimality, collapse
// idempotence, failure-math identities, and bit-identical executor
// results across 1/2/8 threads. A violated check is shrunk by a greedy
// minimizer and written as a JSON reproducer for --replay.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "validate/reproducer.h"

namespace xdbft::validate {

/// \brief Harness configuration (mirrors the CLI flags).
struct CrosscheckOptions {
  /// Number of generator seeds; each seed is one sim case + one executor
  /// case.
  int seeds = 64;
  /// First seed (cases use seed_base .. seed_base + seeds - 1).
  uint64_t seed_base = 1;
  /// Traces per simulated case.
  int traces = 8;
  /// Skip the statistical checks that need large trace sets (the tier-1
  /// configuration; the fuzz CI leg runs without it).
  bool quick = false;
  /// Where violation reproducers are written.
  std::string out_dir = "crosscheck-repro";
  /// Disable reproducer files (used by unit tests).
  bool write_reproducers = true;
  /// When non-empty, every violation additionally writes a post-mortem
  /// bundle there (the harness's seed/check/violation tally so far, the
  /// minimized reproducer embedded verbatim) and the violation message
  /// carries the bundle path.
  std::string postmortem_dir;
};

/// \brief Aggregate outcome of one harness run.
struct CrosscheckReport {
  int seeds_run = 0;
  int64_t checks_run = 0;
  int violations = 0;
  /// One human-readable line per violation.
  std::vector<std::string> messages;
  /// Reproducer files written (parallel to `messages` when enabled).
  std::vector<std::string> repro_paths;
  /// Abort-cap executions observed across all seeds (the abort path must
  /// actually trigger somewhere for the cap checks to mean anything).
  int64_t aborts_observed = 0;
};

/// \brief Run the harness. Violations are reported in the result, not as
/// an error status; the status is non-OK only for environmental failures
/// (e.g. the reproducer directory cannot be written).
Result<CrosscheckReport> RunCrosscheck(const CrosscheckOptions& options);

/// \brief Names of all registered checks.
std::vector<std::string> CheckNames();

/// \brief Run one named check against a case. nullopt = passed (or not
/// applicable); otherwise the violation detail.
Result<std::optional<std::string>> RunCheck(const std::string& check,
                                            const ReproCase& c);

/// \brief Build the deterministic sim case for `seed` (exposed so tests
/// and --replay of "executor" cases can regenerate cases).
ReproCase MakeSimCase(uint64_t seed, int traces);

/// \brief Greedy shrink of a failing sim case: halve the trace count and
/// repeatedly delete plan operators while the named check still fails.
/// Executor cases are returned unchanged (their plan is regenerated from
/// the seed and cannot be edited).
Result<ReproCase> MinimizeCase(const ReproCase& c);

/// \brief Re-run a written reproducer. Returns true when the recorded
/// violation still reproduces.
Result<bool> ReplayReproducer(const std::string& path);

}  // namespace xdbft::validate
