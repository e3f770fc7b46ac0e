// FtCostModel: estimates the total runtime of a fault-tolerant plan
// [P, M_P] under mid-query failures (paper §3.4-3.5): per-path cost TPt
// (Eq. 7-8) and the dominant (max-cost) execution path, whose runtime
// represents the whole plan.
#pragma once

#include <cmath>
#include <vector>

#include "common/result.h"
#include "cost/cost_params.h"
#include "ft/collapsed_plan.h"
#include "ft/failure_math.h"
#include "ft/mat_config.h"
#include "plan/plan.h"

namespace xdbft::ft {

/// \brief Write-ahead-lineage dimensions of the cost model
/// (arXiv:2403.08062): every collapsed operator logs the lineage of its
/// internal intermediates before results flow downstream (runtime grows by
/// write_cost * lineage_volume) and recovery replays from the last logged
/// frontier (only replay_factor of the wasted time is re-paid per
/// attempt). The defaults are WAL disabled — no log writes, full
/// recomputation — which is the paper's recompute-from-inputs model.
struct WalParams {
  double write_cost = 0.0;
  double replay_factor = 1.0;

  /// \brief Durable runtime d(c) = t + write_cost * lineage_volume.
  double DurableRuntime(double t, double lineage_volume) const {
    return t + write_cost * lineage_volume;
  }
};

/// \brief T(c) of one collapsed operator from its durable runtime d(c):
/// Eq. 8 at d with the wasted time discounted by replay_factor, plus
/// `extra_cost_per_attempt` per attempt. The one place that turns
/// WalParams into RecoveryTerms.
double CollapsedOpTotalRuntime(double durable_t, const FailureParams& fparams,
                               const WalParams& wal,
                               double extra_cost_per_attempt = 0.0);

/// \brief One collapsed operator's values in a configuration's cost pass.
struct CostPassOp {
  /// Durable runtime: t(c) + write_cost * lineage_volume. The t that the
  /// recovery terms, rule 3 and the dominant-path memo see.
  double durable_t = 0.0;
  /// Extra recovery charge per attempt: rho * (materialize cost of the
  /// operator's inputs). Every materialized input shares fate with its
  /// consumer, so a burst that fails the consumer also loses its inputs.
  double refetch = 0.0;
  /// T(c) (Eq. 8).
  double total = 0.0;
};

/// \brief The cost pass over one configuration: each collapsed operator's
/// durable runtime, refetch charge and T(c), indexed by CollapsedId.
/// Bursts and WAL are parameter values of the pass, not branches: with no
/// bursts refetch = 0, and with WAL disabled too durable_t = t(c) and T(c)
/// is plain Eq. 8, bit for bit.
struct CostPassResult {
  std::vector<CostPassOp> ops;

  /// \brief TPt (Eq. 7): the sum of T(c) along `path`.
  double PathCost(const CollapsedPath& path) const {
    double total = 0.0;
    for (CollapsedId id : path) total += ops[static_cast<size_t>(id)].total;
    return total;
  }
};

/// \brief The cost pass: price every collapsed operator under (fparams,
/// wal), with refetch = fparams.burst_failure_share() * sum of its inputs'
/// materialize costs. A pure function of (cp, fparams, wal) —
/// bit-identical at any thread count. One allocation per call.
CostPassResult ComputeCostPass(const CollapsedPlan& cp,
                               const FailureParams& fparams,
                               const WalParams& wal = {});

/// \brief The same pass written into `out`, whose buffer is reused: no
/// allocation once it has held a plan of as many collapsed operators.
void ComputeCostPass(const CollapsedPlan& cp, const FailureParams& fparams,
                     const WalParams& wal, CostPassResult* out);

/// \brief Everything the cost function needs (paper: getCostStats output).
struct FtCostContext {
  cost::ClusterStats cluster;
  cost::CostModelParams model;

  /// \brief FailureParams in internal cost units.
  ///
  /// MTBF_cost is the *per-node* MTBF (scaled by CONST_cost): the paper's
  /// cost model tracks a single machine's timeline (§3.5 derives "the
  /// average cost for a single machine"; footnote 6 assumes machines are
  /// non-blocking, i.e. one machine can always move ahead). Under
  /// fine-grained recovery only the failed node's sub-plan restarts, so the
  /// per-node failure process is the right granularity; the S-percentile
  /// attempts bound absorbs part of the max-over-n-machines effect, and the
  /// residual is the mild underestimation the paper reports in Fig. 12a.
  FailureParams MakeFailureParams() const {
    FailureParams p;
    p.mtbf_cost = cluster.mtbf_seconds * model.cost_constant;
    p.mttr_cost = cluster.mttr_seconds * model.cost_constant;
    p.success_target = model.success_target;
    if (model.scale_success_target_with_cluster) {
      // All n partition-parallel executions must jointly meet S.
      p.success_target = std::pow(
          model.success_target,
          1.0 / static_cast<double>(cluster.num_nodes));
    }
    p.exact_wasted_time = model.exact_wasted_time;
    if (cluster.has_bursts()) {
      // Burst events per cost unit: rate per second divided by CONST_cost
      // (t_cost = t_seconds * CONST_cost).
      p.burst_rate_cost =
          1.0 / (cluster.burst_mtbf_seconds * model.cost_constant);
      p.burst_hit_fraction = cluster.burst_fanout;
    }
    return p;
  }

  /// \brief Write-ahead-lineage dimensions from the model knobs.
  /// Disabled WAL is the identity parameters, whatever the write cost and
  /// replay factor say.
  WalParams MakeWalParams() const {
    if (!model.wal_enabled) return {};
    return {model.wal_write_cost, model.wal_replay_factor};
  }

  Status Validate() const {
    XDBFT_RETURN_NOT_OK(cluster.Validate());
    XDBFT_RETURN_NOT_OK(model.Validate());
    // The derived cost-unit parameters must survive the conversion too
    // (e.g. mtbf_seconds * cost_constant overflowing to inf).
    return MakeFailureParams().Validate();
  }
};

/// \brief Result of estimating one fault-tolerant plan.
struct FtPlanEstimate {
  /// TPt of the dominant path: the plan's estimated runtime under failures.
  double dominant_cost = 0.0;
  /// The dominant execution path itself.
  CollapsedPath dominant_path;
  /// Number of source->sink paths evaluated.
  size_t paths_evaluated = 0;
};

/// \brief Cost model over collapsed plans.
class FtCostModel {
 public:
  explicit FtCostModel(FtCostContext context) : context_(context) {}

  const FtCostContext& context() const { return context_; }

  /// \brief T(c) (Eq. 8) for one collapsed operator priced on its own (no
  /// refetch).
  double OperatorCost(const CollapsedOp& c) const;

  /// \brief The cost pass (ComputeCostPass) of `cp` under this context.
  CostPassResult CostPass(const CollapsedPlan& cp) const;

  /// \brief TPt (Eq. 7): total runtime of one execution path under
  /// mid-query failures.
  double PathCost(const CollapsedPlan& cp, const CollapsedPath& path) const;

  /// \brief Estimate a fault-tolerant plan: enumerate all execution paths
  /// of P^c and return the dominant one (Listing 1, lines 9-13).
  Result<FtPlanEstimate> Estimate(const CollapsedPlan& cp) const;

  /// \brief Convenience: collapse [plan, config] and estimate.
  Result<FtPlanEstimate> Estimate(const plan::Plan& plan,
                                  const MaterializationConfig& config) const;

 private:
  FtCostContext context_;
};

}  // namespace xdbft::ft
