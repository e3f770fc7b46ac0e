// Explainability for materialization decisions: for a chosen
// configuration, the marginal effect of toggling each free operator's
// m(o) — "what would it cost to (not) checkpoint this operator?" — which
// is how a DBA audits the cost-based scheme's choice.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "ft/ft_cost.h"
#include "ft/scheme.h"

namespace xdbft::ft {

/// \brief Marginal effect of one free operator's materialization flag.
struct OperatorMarginal {
  plan::OpId op = plan::kInvalidOpId;
  std::string label;
  /// m(o) in the analyzed configuration.
  bool materialized = false;
  /// Estimated plan cost with the flag as configured.
  double cost_as_configured = 0.0;
  /// Estimated plan cost with only this flag toggled.
  double cost_toggled = 0.0;

  /// \brief How much the configured setting saves over toggling it
  /// (positive = the configured choice is better).
  double benefit() const { return cost_toggled - cost_as_configured; }
};

/// \brief Full marginal report for [plan, config].
struct MarginalAnalysis {
  double configured_cost = 0.0;
  std::vector<OperatorMarginal> operators;

  /// \brief Multi-line human-readable rendering.
  std::string ToString() const;
};

/// \brief Compute the marginal analysis of `config` for `plan` under
/// `context`. Only free (enumerable) operators are analyzed.
Result<MarginalAnalysis> AnalyzeMarginals(const plan::Plan& plan,
                                          const MaterializationConfig& config,
                                          const FtCostContext& context);

/// \brief Observed counts from an actual run — either the in-process
/// FaultTolerantExecutor (engine::FtExecutionResult) or the cluster
/// simulator. Kept as plain numbers so the ft layer stays independent of
/// the engine/cluster layers.
struct ObservedExecution {
  /// Where the observation came from ("ft_executor", "simulator").
  std::string source;
  int failures = 0;
  /// Task attempts beyond the failure-free minimum (recovery work).
  int recovery_executions = 0;
  int task_executions = 0;
  double runtime_seconds = 0.0;
};

/// \brief Predicted failure behavior of one collapsed operator (§3.5), as
/// the estimate's cost pass priced it.
struct PredictedOperator {
  std::string label;
  /// Durable runtime in cost units: t(c) plus remote-read and WAL
  /// log-write overheads (t(c) itself when both are off).
  double t = 0.0;
  double gamma = 0.0;     ///< success probability of one attempt
  double attempts = 0.0;  ///< a(c), Eq. 6, at the burst-adjusted MTBF
  double wasted = 0.0;    ///< w(c), Eq. 3/4
  double total = 0.0;     ///< T(c), Eq. 8: the cost pass's own value
};

/// \brief Fig. 12-style predicted-vs-observed report for [plan, config]:
/// the cost model's per-collapsed-operator a(c)/w(c)/T(c) alongside the
/// attempt/recovery counts an instrumented execution actually recorded.
struct AccuracyReport {
  std::vector<PredictedOperator> operators;
  /// Dominant-path TPt — the plan's predicted runtime under failures.
  double predicted_runtime = 0.0;
  /// Sum of a(c) over collapsed operators: expected extra attempts per
  /// partition chain at the S-percentile.
  double predicted_attempts = 0.0;
  /// Observations to render next to the prediction (empty = none yet).
  std::vector<ObservedExecution> observed;

  std::string ToString() const;
};

/// \brief Build the predicted side of the accuracy report; callers append
/// ObservedExecution entries from executor/simulator runs.
Result<AccuracyReport> BuildAccuracyReport(const plan::Plan& plan,
                                           const MaterializationConfig& config,
                                           const FtCostContext& context);

/// \brief Human-readable report of a chosen scheme: the cluster and model
/// it was chosen under, its recovery mode, configuration and estimated
/// runtime, the plan's tr/tm, and the marginal analysis.
std::string Explain(const SchemePlan& chosen, const FtCostContext& context);

}  // namespace xdbft::ft
