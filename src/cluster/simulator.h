// ClusterSimulator: discrete-event execution of a fault-tolerant plan
// [P, M_P] on a simulated shared-nothing cluster with injected failures.
//
// This substitutes for the paper's physical 10-node XDB/MySQL testbed
// (§5.1): collapsed operators execute partition-parallel on every node
// (each node processes its partition in t(c) seconds), inter-operator
// parallelism follows the collapsed DAG, intermediates are written to
// fault-tolerant storage and never lost (§2.2), and a failure of node k
// while it executes a sub-plan restarts that sub-plan on that node after
// MTTR.
//
// Every recovery discipline is one DAG walk over one retry unit, the
// simulated counterpart of T(c) = t + a*w + a*MTTR (Eq. 8). A retry unit
// runs some work, restarts after each failure (detection at the next
// monitoring tick, then MTTR) and gives up after max_restarts. What each
// ft::RecoveryMode feeds it:
//   kFineGrained  - per (collapsed op, node): t(c), recomputed from the
//                   materialized inputs (replay factor 1); under a no-mat
//                   configuration this is lineage-style recomputation of
//                   the failed partition's full chain.
//   kWalReplay    - write-ahead lineage: per (collapsed op, node),
//                   t(c) + wal_write_cost * lineage_volume; a retry
//                   replays the logged progress at wal_replay_factor
//                   speed, and logged progress survives the failure.
//   kFullRestart  - one unit of the failure-free makespan over the
//                   cluster-wide failure stream: any failure restarts the
//                   entire query (the parallel-database strategy); the
//                   paper aborts after 100 restarts.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "cluster/failure_trace.h"
#include "cost/cost_params.h"
#include "ft/collapsed_plan.h"
#include "ft/scheme.h"
#include "obs/attempt_log.h"

namespace xdbft::cluster {

/// \brief Simulator knobs.
struct SimulationOptions {
  /// CONST_pipe used when collapsing the plan for execution. MatchModel
  /// copies it from a cost model.
  double pipe_constant = 1.0;
  /// Abort the query after this many restarts (paper: 100). Full restart
  /// counts query restarts; fine-grained recovery counts the restarts of
  /// each retry unit (collapsed op x node) separately — the same per-task
  /// cap the FaultTolerantExecutor's max_attempts enforces — so both
  /// recovery schemes share one abort semantics and can be compared
  /// fairly under extreme failure rates.
  int max_restarts = 100;
  /// Per-partition execution-time skew: node k's duration for a collapsed
  /// op is t(c) * (1 + skew * u_k) with u_k deterministic in [-1, 1].
  /// 0 = perfectly balanced partitions (paper's co-partitioned TPC-H).
  double partition_skew = 0.0;
  /// The coordinator polls sub-plans every `monitoring_interval` seconds
  /// (paper §5.1 used 2 s): a failure at time f is detected at the next
  /// monitoring tick, and redeployment (MTTR) starts then. 0 = immediate
  /// detection (the default; the paper folds the average detection delay
  /// into its MTTR=1 s).
  double monitoring_interval = 0.0;
  /// Write-ahead lineage (used when recovery == kWalReplay): every
  /// sub-plan logs lineage ahead of its results, inflating its duration by
  /// wal_write_cost * lineage_volume; a failed partition replays the
  /// logged frontier at `wal_replay_factor` of the original speed instead
  /// of recomputing from the materialized inputs. Progress already logged
  /// survives failures. Mirrors CostModelParams::wal_* (MatchModel copies
  /// them), but defaults to a free log replayed at full length.
  double wal_write_cost = 0.0;
  double wal_replay_factor = 1.0;
  /// When set, every simulated task attempt (killed and successful, plus
  /// full-query restarts) is appended as an AttemptRecord on *virtual*
  /// time: dispatch = attempt start, finish = completion or failure
  /// instant. A collapsed op's records are labeled `c<id>:<anchor label>`
  /// on node k; whole-query attempts are labeled `query` on node -1.
  /// obs::AddToTrace draws the timeline as a Chrome trace. The timeline
  /// must outlive the simulator calls; records accumulate across
  /// Run/RunMany invocations. Null (default) disables.
  obs::AttemptTimeline* attempt_log = nullptr;
};

/// \brief `base` with the fields that mirror the cost model (CONST_pipe,
/// the WAL write cost and replay factor) taken from `model`, so the
/// simulator collapses the plan and replays the log as the estimate priced
/// them. Every other field keeps `base`'s value.
inline SimulationOptions MatchModel(const cost::CostModelParams& model,
                                    SimulationOptions base = {}) {
  base.pipe_constant = model.pipe_constant;
  base.wal_write_cost = model.wal_write_cost;
  base.wal_replay_factor = model.wal_replay_factor;
  return base;
}

/// \brief Outcome of one simulated execution (or, for RunMany, the
/// aggregate over a trace set).
struct SimulationResult {
  /// True unless the run (any trace, for RunMany) hit max_restarts.
  bool completed = false;
  /// Wall-clock runtime of the query under the injected failures. For a
  /// single aborted run this is the time burned before giving up.
  ///
  /// RunMany contract: `runtime`/`runtime_p50`/`runtime_p95` are computed
  /// on a *completed-trace basis* — the mean/percentiles over the traces
  /// that finished. Aborted traces are reported separately: `aborted` is
  /// their count and `aborted_seconds` the *mean* time they burned before
  /// giving up, so no cluster time ever silently vanishes from the
  /// aggregate. Only when every trace aborts do the runtime fields fall
  /// back to the time-spent basis of the aborted runs (an impossible
  /// workload must not look like an instant success).
  double runtime = 0.0;
  /// Number of sub-plan restarts (fine-grained) or query restarts (full).
  int restarts = 0;
  /// Failures that actually interrupted running work.
  int failures_hit = 0;
  /// Aborted executions: 1 for a single run that hit max_restarts, the
  /// aborted-trace count for RunMany.
  int aborted = 0;
  /// Time an aborted run burned before giving up (mean over the aborted
  /// traces for RunMany; equal to `runtime` for a single aborted run).
  double aborted_seconds = 0.0;
  /// RunMany only: median and 95th-percentile runtimes over the
  /// completed traces (equal to `runtime` for single runs; over the
  /// time-spent of aborted runs when nothing completed).
  double runtime_p50 = 0.0;
  double runtime_p95 = 0.0;

  std::string ToString() const;
};

/// \brief Copies `r` into a RunReport metrics map under "simulator.*"
/// ("simulator.failures" = failures_hit, "simulator.aborts" = aborted).
void AddRunMetrics(const SimulationResult& r,
                   std::map<std::string, double>* metrics);

/// \brief Simulated shared-nothing cluster executing fault-tolerant plans.
class ClusterSimulator {
 public:
  ClusterSimulator(cost::ClusterStats stats, SimulationOptions options = {})
      : stats_(stats), options_(options) {}

  /// \brief Execute [plan, config] under `recovery`, injecting failures
  /// from `trace`. The trace is advanced (lazily extended) as needed.
  /// `start_time` places the query on the trace's timeline (used by the
  /// workload simulator so consecutive queries share one failure
  /// history); the returned runtime is finish - start_time.
  Result<SimulationResult> Run(const plan::Plan& plan,
                               const ft::MaterializationConfig& config,
                               ft::RecoveryMode recovery,
                               ClusterTrace& trace,
                               double start_time = 0.0) const;

  /// \brief Execute a scheme-instantiated plan.
  Result<SimulationResult> Run(const ft::SchemePlan& scheme,
                               ClusterTrace& trace,
                               double start_time = 0.0) const;

  /// \brief Mean runtime over `traces` (the paper averages 10 traces).
  /// The scheme is collapsed once and every trace walks that one
  /// collapsed plan; the result equals a fold of per-trace Run calls.
  /// See the SimulationResult contract: `runtime`/percentiles aggregate
  /// the completed traces, aborted runs are surfaced via `aborted` (count)
  /// and `aborted_seconds` (mean time burned), and when every trace aborts
  /// the runtime fields report the mean/percentiles of the time the
  /// aborted runs consumed instead of a meaningless 0.
  Result<SimulationResult> RunMany(const ft::SchemePlan& scheme,
                                   std::vector<ClusterTrace>& traces) const;

  /// \brief Pure query runtime without failures and without any extra
  /// materialization (the paper's overhead baseline): the no-failure
  /// makespan of the plan collapsed under the no-mat configuration.
  Result<double> BaselineRuntime(const plan::Plan& plan) const;

  const cost::ClusterStats& stats() const { return stats_; }
  const SimulationOptions& options() const { return options_; }

 private:
  /// Identity of one retry unit in the attempt ledger: `label` names its
  /// records and `node` is its node (-1 = the whole query).
  struct RetryUnit {
    const std::string& label;
    int node;
  };

  /// One retry unit: `duration` seconds of work that start at `ready` and
  /// restart whenever `failures` (a node's FailureTrace, or the
  /// ClusterTrace for a full restart) fails during an attempt. Progress
  /// survives a failure as a durable log that the next attempt replays at
  /// `replay_factor` speed; at 1 an attempt recomputes everything. Returns
  /// the completion time. After max_restarts restarts it sets `*aborted`
  /// and returns the time the query gave up (last detection + MTTR).
  template <typename FailureSource>
  double RunRetryUnit(double ready, double duration, double replay_factor,
                      FailureSource& failures, const RetryUnit& unit,
                      int* restarts, bool* aborted) const;

  /// What every walk of one scheme shares: the collapsed plan, its ledger
  /// labels (one per collapsed op, or none when no attempt_log is
  /// attached) and, per node k, the factor
  /// 1 + partition_skew * u_k its durations take.
  struct Collapsed {
    ft::CollapsedPlan cp;
    std::vector<std::string> labels;
    std::vector<double> node_stretch;
  };

  /// The checks and the set-up behind Run and RunMany, in their error
  /// order: cluster stats, `trace`'s node count, then the collapse.
  Result<Collapsed> Collapse(const plan::Plan& plan,
                             const ft::MaterializationConfig& config,
                             const ClusterTrace& trace) const;
  Status CheckNodeCount(const ClusterTrace& trace) const;

  /// The DAG walk behind Run: feeds each recovery mode's retry units (see
  /// the file comment) and folds their completion times.
  SimulationResult Walk(const Collapsed& collapsed, ft::RecoveryMode recovery,
                        ClusterTrace& trace, double start_time) const;

  cost::ClusterStats stats_;
  SimulationOptions options_;
};

/// \brief Overhead in percent of `runtime` over `baseline` (paper §5.2:
/// "if we report that a scheme has 50% overhead, the query took 50% more
/// time than the baseline").
inline double OverheadPercent(double runtime, double baseline) {
  return (runtime / baseline - 1.0) * 100.0;
}

}  // namespace xdbft::cluster
