// Experiment harness shared by the paper-reproduction benchmarks: runs all
// five fault-tolerance schemes for a query over a fixed set of failure
// traces and reports overheads relative to the no-failure baseline
// (paper §5.2).
#pragma once

#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "ft/scheme.h"

namespace xdbft::cluster {

/// \brief Per-scheme outcome of one experiment.
struct SchemeOutcome {
  ft::SchemeKind kind = ft::SchemeKind::kCostBased;
  /// False if any trace aborted (the paper prints "Aborted").
  bool completed = false;
  /// Mean runtime over traces, seconds.
  double mean_runtime = 0.0;
  /// Overhead over the baseline, percent.
  double overhead_percent = 0.0;
  /// Cost-model estimate of the runtime under failures.
  double estimated_runtime = 0.0;
  /// Number of materialized operators chosen by the scheme.
  size_t num_materialized = 0;
  int restarts = 0;
};

/// \brief Outcome of running all schemes on one query.
struct ExperimentResult {
  double baseline_runtime = 0.0;
  std::vector<SchemeOutcome> schemes;

  const SchemeOutcome& outcome(ft::SchemeKind kind) const;
};

/// \brief Run the five schemes (§5.2's four plus write-ahead lineage,
/// ft::kAllSchemeKinds) for `plan` on `stats`, injecting
/// failures from `num_traces` deterministic traces derived from `seed`.
/// The same trace set is reused across schemes, as in the paper.
Result<ExperimentResult> RunSchemeComparison(
    const plan::Plan& plan, const cost::ClusterStats& stats,
    const cost::CostModelParams& model = {}, int num_traces = 10,
    uint64_t seed = 42, const SimulationOptions& sim_options = {});

}  // namespace xdbft::cluster
