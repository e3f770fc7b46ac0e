#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/string_util.h"

namespace xdbft::cluster {

using ft::CollapsedPlan;
using ft::MaterializationConfig;
using ft::RecoveryMode;

std::string SimulationResult::ToString() const {
  if (aborted > 0) {
    return StrFormat(
        "SimulationResult(%s, runtime=%s, restarts=%d, aborted=%d)",
        completed ? "completed" : "ABORTED",
        HumanDuration(runtime).c_str(), restarts, aborted);
  }
  return StrFormat("SimulationResult(%s, runtime=%s, restarts=%d)",
                   completed ? "completed" : "ABORTED",
                   HumanDuration(runtime).c_str(), restarts);
}

void AddRunMetrics(const SimulationResult& r,
                   std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  m["simulator.runtime_seconds"] = r.runtime;
  m["simulator.restarts"] = r.restarts;
  m["simulator.failures"] = r.failures_hit;
  m["simulator.aborts"] = r.aborted;
}

namespace {

// Deterministic per-node skew factor in [-1, 1].
double NodeSkew(int node) {
  uint64_t state = 0xabcdef1234567890ULL + static_cast<uint64_t>(node);
  const uint64_t bits = SplitMix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

// Appends one attempt to the timeline (no-op for a null log). Virtual
// simulated seconds go straight into the record's timestamps.
void LogAttempt(obs::AttemptTimeline* log, const std::string& label,
                int node, int attempt, double dispatch, double finish,
                bool killed) {
  if (log == nullptr) return;
  obs::AttemptRecord rec;
  rec.label = label;
  rec.node = node;
  rec.attempt = attempt;
  rec.dispatch_seconds = dispatch;
  rec.finish_seconds = finish;
  rec.killed = killed;
  log->records.push_back(std::move(rec));
}

}  // namespace

template <typename FailureSource>
double ClusterSimulator::RunRetryUnit(double ready, double duration,
                                      double replay_factor,
                                      FailureSource& failures,
                                      const RetryUnit& unit, int* restarts,
                                      bool* aborted) const {
  if (duration <= 0.0) return ready;
  double logged = 0.0;  // durable logged progress, in work seconds
  double start = ready;
  for (int attempt = 0;; ++attempt) {
    // One attempt: replay the logged frontier, then run the fresh rest.
    // The span is written as duration - (1 - f)*logged rather than
    // f*logged + (duration - logged): algebraically identical, but at
    // f == 1 the subtrahend is exactly 0.0, so a recompute attempt spans
    // exactly `duration`.
    const double replay = replay_factor * logged;
    const double span = duration - (1.0 - replay_factor) * logged;
    const double fail = failures.NextFailureAfter(start);
    if (fail >= start + span) {
      LogAttempt(options_.attempt_log, unit.label, unit.node, attempt, start,
                 start + span, /*killed=*/false);
      return start + span;
    }
    // The failure kills the attempt. Work done past the replay phase was
    // logged *before* its results flowed on, so it survives; work lost
    // inside the replay phase costs nothing extra (the log is still
    // there). At f == 1 the logged progress never shortens an attempt.
    const double elapsed = fail - start;
    if (elapsed > replay) logged += elapsed - replay;
    ++(*restarts);
    LogAttempt(options_.attempt_log, unit.label, unit.node, attempt, start,
               fail, /*killed=*/true);
    // The coordinator notices the failure at the next monitoring tick,
    // then redeploys (MTTR) and starts the unit over.
    double detected = fail;
    if (options_.monitoring_interval > 0.0) {
      const double ticks = std::ceil(fail / options_.monitoring_interval);
      detected = ticks * options_.monitoring_interval;
    }
    if (attempt + 1 >= options_.max_restarts) {
      // This retry unit keeps dying: give up after max_restarts restarts,
      // as the paper aborts after 100 (and like the executor's per-task
      // max_attempts), so every recovery mode shares one abort semantics.
      *aborted = true;
      return detected + stats_.mttr_seconds;
    }
    start = detected + stats_.mttr_seconds;
  }
}

SimulationResult ClusterSimulator::Walk(const Collapsed& collapsed,
                                        RecoveryMode recovery,
                                        ClusterTrace& trace,
                                        double start_time) const {
  const CollapsedPlan& cp = collapsed.cp;
  const std::vector<std::string>& labels = collapsed.labels;
  SimulationResult result;
  bool aborted = false;
  // The query finished (or gave up) at `end`.
  auto conclude = [&](double end) {
    result.runtime = end - start_time;
    result.failures_hit = result.restarts;
    result.completed = !aborted;
    if (aborted) {
      result.aborted = 1;
      result.aborted_seconds = result.runtime;
    }
    return result;
  };
  if (recovery == RecoveryMode::kFullRestart) {
    static const std::string kQuery = "query";
    return conclude(RunRetryUnit(start_time, cp.MakespanNoFailure(),
                                 /*replay_factor=*/1.0, trace,
                                 {kQuery, /*node=*/-1},
                                 &result.restarts, &aborted));
  }
  // Write-ahead lineage pays the log writes up front.
  const bool wal = recovery == RecoveryMode::kWalReplay;
  const double replay_factor = wal ? options_.wal_replay_factor : 1.0;
  static const std::string kNoLabel;
  std::vector<double> finish(cp.num_ops(), start_time);
  for (const auto& c : cp.ops()) {  // ascending id = topological
    const std::string& label =
        labels.empty() ? kNoLabel : labels[static_cast<size_t>(c.id)];
    double ready = start_time;
    for (ft::CollapsedId in : c.inputs) {
      ready = std::max(ready, finish[static_cast<size_t>(in)]);
    }
    const double t =
        wal ? c.total_cost() + options_.wal_write_cost * c.lineage_volume
            : c.total_cost();
    double done = ready;
    for (int k = 0; k < trace.num_nodes(); ++k) {
      const double completion = RunRetryUnit(
          ready, t * collapsed.node_stretch[static_cast<size_t>(k)],
          replay_factor, trace.node(k), {label, k}, &result.restarts,
          &aborted);
      // A retry unit hit max_restarts: the query gives up at that unit's
      // give-up time.
      if (aborted) return conclude(completion);
      done = std::max(done, completion);
    }
    finish[static_cast<size_t>(c.id)] = done;
  }
  double end = start_time;
  for (ft::CollapsedId sink : cp.sinks()) {
    end = std::max(end, finish[static_cast<size_t>(sink)]);
  }
  return conclude(end);
}

Status ClusterSimulator::CheckNodeCount(const ClusterTrace& trace) const {
  if (trace.num_nodes() != stats_.num_nodes) {
    return Status::InvalidArgument(
        "trace node count does not match cluster");
  }
  return Status::OK();
}

Result<ClusterSimulator::Collapsed> ClusterSimulator::Collapse(
    const plan::Plan& plan, const MaterializationConfig& config,
    const ClusterTrace& trace) const {
  XDBFT_RETURN_NOT_OK(stats_.Validate());
  XDBFT_RETURN_NOT_OK(CheckNodeCount(trace));
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, config, options_.pipe_constant));
  // Ledger labels only when a ledger records them: a collapsed op by its
  // id and materializing anchor.
  std::vector<std::string> labels;
  if (options_.attempt_log != nullptr) {
    labels.reserve(cp.num_ops());
    for (const auto& c : cp.ops()) {
      labels.push_back(
          StrFormat("c%d:%s", c.id, plan.node(c.anchor).label.c_str()));
    }
  }
  std::vector<double> node_stretch;
  node_stretch.reserve(static_cast<size_t>(stats_.num_nodes));
  for (int k = 0; k < stats_.num_nodes; ++k) {
    node_stretch.push_back(1.0 + options_.partition_skew * NodeSkew(k));
  }
  return Collapsed{std::move(cp), std::move(labels), std::move(node_stretch)};
}

Result<SimulationResult> ClusterSimulator::Run(
    const plan::Plan& plan, const MaterializationConfig& config,
    RecoveryMode recovery, ClusterTrace& trace, double start_time) const {
  XDBFT_ASSIGN_OR_RETURN(Collapsed collapsed, Collapse(plan, config, trace));
  SimulationResult result = Walk(collapsed, recovery, trace, start_time);
  result.runtime_p50 = result.runtime;
  result.runtime_p95 = result.runtime;
  return result;
}

Result<SimulationResult> ClusterSimulator::Run(const ft::SchemePlan& scheme,
                                               ClusterTrace& trace,
                                               double start_time) const {
  return Run(scheme.plan, scheme.config, scheme.recovery, trace,
             start_time);
}

Result<SimulationResult> ClusterSimulator::RunMany(
    const ft::SchemePlan& scheme, std::vector<ClusterTrace>& traces) const {
  if (traces.empty()) {
    return Status::InvalidArgument("no traces given");
  }
  SimulationResult agg;
  agg.completed = true;
  std::vector<double> runtimes;
  std::vector<double> aborted_runtimes;
  runtimes.reserve(traces.size());
  XDBFT_ASSIGN_OR_RETURN(Collapsed collapsed,
                         Collapse(scheme.plan, scheme.config, traces[0]));
  for (auto& trace : traces) {
    XDBFT_RETURN_NOT_OK(CheckNodeCount(trace));
    const SimulationResult r =
        Walk(collapsed, scheme.recovery, trace, /*start_time=*/0.0);
    agg.restarts += r.restarts;
    agg.failures_hit += r.failures_hit;
    if (r.completed) {
      runtimes.push_back(r.runtime);
    } else {
      agg.completed = false;
      ++agg.aborted;
      aborted_runtimes.push_back(r.runtime);
    }
  }
  // Contract (see SimulationResult): runtime stats on a completed-trace
  // basis, aborted traces reported separately as a count plus the mean
  // time they burned. When every trace aborts there is no completed
  // runtime to average; report the time the aborted runs burned before
  // giving up rather than a 0.0 that would make the workload look like an
  // instant success.
  agg.aborted_seconds = Mean(aborted_runtimes);
  const std::vector<double>& basis =
      runtimes.empty() ? aborted_runtimes : runtimes;
  agg.runtime = Mean(basis);
  agg.runtime_p50 = Percentile(basis, 50.0);
  agg.runtime_p95 = Percentile(basis, 95.0);
  return agg;
}

Result<double> ClusterSimulator::BaselineRuntime(
    const plan::Plan& plan) const {
  XDBFT_ASSIGN_OR_RETURN(
      CollapsedPlan cp,
      CollapsedPlan::Create(plan, MaterializationConfig::NoMat(plan),
                            options_.pipe_constant));
  return cp.MakespanNoFailure();
}

}  // namespace xdbft::cluster
