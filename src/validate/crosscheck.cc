#include "validate/crosscheck.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/simulator.h"
#include "cluster/workload.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "engine/ft_executor.h"
#include "exec/batch.h"
#include "ft/collapsed_plan.h"
#include "ft/enumerator.h"
#include "ft/failure_math.h"
#include "ft/ft_cost.h"
#include "ft/scheme.h"
#include "obs/run_report.h"
#include "validate/generator.h"

namespace xdbft::validate {

namespace {

using cluster::ClusterSimulator;
using cluster::ClusterTrace;
using cluster::SimulationResult;
using ft::CollapsedPlan;
using ft::MaterializationConfig;
using ft::RecoveryMode;

constexpr double kRelTol = 1e-9;

/// Aborts the abort-cap check observed; RunCrosscheck surfaces the total
/// so a run where the abort path never fired is visible in the report.
std::atomic<int64_t> g_aborts_observed{0};

bool Near(double a, double b, double rtol) {
  return std::abs(a - b) <= rtol * std::max(std::abs(a), std::abs(b));
}

ft::FtCostContext MakeContext(const ReproCase& c) {
  ft::FtCostContext context;
  context.cluster = c.cluster;
  context.model.pipe_constant = c.sim.pipe_constant;
  return context;
}

ft::SchemePlan MakeScheme(const ReproCase& c, RecoveryMode recovery) {
  ft::SchemePlan scheme;
  scheme.kind = ft::SchemeKind::kCostBased;
  scheme.recovery = recovery;
  scheme.plan = c.plan;
  scheme.config = c.config;
  return scheme;
}

// ---------------------------------------------------------------------------
// Sim-case checks
// ---------------------------------------------------------------------------

/// Every completed simulated run is at least as long as the failure-free
/// critical path, and the abort/completed result fields are coherent.
std::optional<std::string> CheckRuntimeLowerBound(const ReproCase& c) {
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  const double makespan = cp->MakespanNoFailure();
  ClusterSimulator sim(c.cluster, c.sim);
  for (RecoveryMode mode :
       {RecoveryMode::kFineGrained, RecoveryMode::kFullRestart}) {
    std::vector<ClusterTrace> traces = c.trace.Materialize(c.cluster);
    for (size_t i = 0; i < traces.size(); ++i) {
      auto r = sim.Run(c.plan, c.config, mode, traces[i]);
      if (!r.ok()) return "sim failed: " + r.status().ToString();
      if (r->completed) {
        if (r->aborted != 0) {
          return StrFormat("trace %zu: completed but aborted=%d", i,
                           r->aborted);
        }
        if (r->runtime < makespan * (1.0 - kRelTol)) {
          return StrFormat(
              "trace %zu mode %d: runtime %.9g below makespan %.9g", i,
              static_cast<int>(mode), r->runtime, makespan);
        }
      } else {
        if (r->aborted != 1 || !Near(r->aborted_seconds, r->runtime, kRelTol)) {
          return StrFormat(
              "trace %zu mode %d: aborted run has aborted=%d "
              "aborted_seconds=%.9g runtime=%.9g",
              i, static_cast<int>(mode), r->aborted, r->aborted_seconds,
              r->runtime);
        }
      }
      if (r->restarts < 0 || r->failures_hit != r->restarts) {
        return StrFormat("trace %zu: restarts=%d failures_hit=%d", i,
                         r->restarts, r->failures_hit);
      }
    }
  }
  return std::nullopt;
}

/// RunMany must equal an explicit per-trace fold: completed-basis
/// mean/percentiles, aborted count, and mean burned time of aborted runs.
std::optional<std::string> CheckRunManyDifferential(const ReproCase& c) {
  ClusterSimulator sim(c.cluster, c.sim);
  for (RecoveryMode mode :
       {RecoveryMode::kFineGrained, RecoveryMode::kFullRestart}) {
    ft::SchemePlan scheme = MakeScheme(c, mode);
    std::vector<ClusterTrace> traces = c.trace.Materialize(c.cluster);
    auto agg = sim.RunMany(scheme, traces);
    if (!agg.ok()) return "RunMany failed: " + agg.status().ToString();

    std::vector<double> completed, aborted;
    int restarts = 0, failures = 0;
    std::vector<ClusterTrace> fold_traces = c.trace.Materialize(c.cluster);
    for (auto& trace : fold_traces) {
      auto r = sim.Run(scheme, trace);
      if (!r.ok()) return "sim failed: " + r.status().ToString();
      restarts += r->restarts;
      failures += r->failures_hit;
      (r->completed ? completed : aborted).push_back(r->runtime);
    }
    const std::vector<double>& basis = completed.empty() ? aborted : completed;
    const double want_runtime = Mean(basis);
    const double want_p50 = Percentile(basis, 50.0);
    const double want_p95 = Percentile(basis, 95.0);
    const double want_aborted_seconds = Mean(aborted);
    if (!Near(agg->runtime, want_runtime, kRelTol) ||
        !Near(agg->runtime_p50, want_p50, kRelTol) ||
        !Near(agg->runtime_p95, want_p95, kRelTol)) {
      return StrFormat(
          "mode %d: RunMany runtime/p50/p95 = %.9g/%.9g/%.9g, fold = "
          "%.9g/%.9g/%.9g",
          static_cast<int>(mode), agg->runtime, agg->runtime_p50,
          agg->runtime_p95, want_runtime, want_p50, want_p95);
    }
    if (agg->aborted != static_cast<int>(aborted.size()) ||
        !Near(agg->aborted_seconds, want_aborted_seconds, kRelTol)) {
      return StrFormat(
          "mode %d: RunMany aborted=%d aborted_seconds=%.9g, fold has %zu "
          "aborts with mean %.9g",
          static_cast<int>(mode), agg->aborted, agg->aborted_seconds,
          aborted.size(), want_aborted_seconds);
    }
    if (agg->restarts != restarts || agg->failures_hit != failures) {
      return StrFormat("mode %d: RunMany restarts=%d/%d fold=%d/%d",
                       static_cast<int>(mode), agg->restarts,
                       agg->failures_hit, restarts, failures);
    }
    if (agg->completed != aborted.empty()) {
      return StrFormat("mode %d: RunMany completed=%d with %zu aborts",
                       static_cast<int>(mode), agg->completed ? 1 : 0,
                       aborted.size());
    }
  }
  return std::nullopt;
}

/// With max_restarts = 1 any failure aborts the retry unit, so a completed
/// run must have seen zero restarts — the sharp form of the abort-cap
/// semantics in both recovery modes. (Reverting the fine-grained cap makes
/// failed runs complete with restarts > 0, which this flags immediately.)
std::optional<std::string> CheckAbortCap(const ReproCase& c) {
  ReproCase harsh = c;
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  double max_cost = 0.0;
  for (const auto& op : cp->ops()) {
    max_cost = std::max(max_cost, op.total_cost());
  }
  // MTBF at the biggest retry unit's duration: each attempt of that unit
  // fails with probability 1 - 1/e, so the abort path actually fires.
  harsh.cluster.mtbf_seconds = std::max(max_cost, 1.0);
  harsh.sim.max_restarts = 1;
  ClusterSimulator sim(harsh.cluster, harsh.sim);
  for (RecoveryMode mode :
       {RecoveryMode::kFineGrained, RecoveryMode::kFullRestart}) {
    std::vector<ClusterTrace> traces = harsh.trace.Materialize(harsh.cluster);
    for (size_t i = 0; i < traces.size(); ++i) {
      auto r = sim.Run(harsh.plan, harsh.config, mode, traces[i]);
      if (!r.ok()) return "sim failed: " + r.status().ToString();
      if (r->completed && r->restarts != 0) {
        return StrFormat(
            "trace %zu mode %d: completed with restarts=%d under "
            "max_restarts=1 (cap ignored)",
            i, static_cast<int>(mode), r->restarts);
      }
      if (!r->completed) {
        g_aborts_observed.fetch_add(1, std::memory_order_relaxed);
        if (r->aborted != 1 || r->restarts < 1 ||
            !Near(r->aborted_seconds, r->runtime, kRelTol)) {
          return StrFormat(
              "trace %zu mode %d: abort reported aborted=%d restarts=%d "
              "aborted_seconds=%.9g runtime=%.9g",
              i, static_cast<int>(mode), r->aborted, r->restarts,
              r->aborted_seconds, r->runtime);
        }
      }
    }
  }
  return std::nullopt;
}

/// The analytic estimate must dominate the failure-free makespan, and
/// every per-operator T(c) must dominate t(c).
std::optional<std::string> CheckAnalyticBounds(const ReproCase& c) {
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  ft::FtCostModel model(MakeContext(c));
  auto est = model.Estimate(*cp);
  if (!est.ok()) return "estimate failed: " + est.status().ToString();
  if (!std::isfinite(est->dominant_cost) || est->dominant_cost < 0.0) {
    return StrFormat("dominant cost not finite: %.9g", est->dominant_cost);
  }
  const double makespan = cp->MakespanNoFailure();
  if (est->dominant_cost < makespan * (1.0 - kRelTol)) {
    return StrFormat("dominant cost %.9g below makespan %.9g",
                     est->dominant_cost, makespan);
  }
  for (const auto& op : cp->ops()) {
    const double t = model.OperatorCost(op);
    if (t < op.total_cost() * (1.0 - kRelTol) || !std::isfinite(t)) {
      return StrFormat("T(c@%d)=%.9g below t(c)=%.9g", op.anchor, t,
                       op.total_cost());
    }
  }
  return std::nullopt;
}

/// Mean simulated runtime and the analytic dominant cost describe the same
/// quantity; in moderate failure regimes they must agree within a wide
/// band (the paper's own Fig. 12 reports the model is mildly optimistic).
std::optional<std::string> CheckAnalyticVsSim(const ReproCase& c) {
  if (c.trace.kind != TraceKind::kIndependent) return std::nullopt;
  if (c.sim.monitoring_interval != 0.0) return std::nullopt;
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  const double makespan = cp->MakespanNoFailure();
  const double eta =
      ft::FailureProbability(makespan, c.cluster.effective_mtbf());
  // Near-certain failure per attempt: runtimes are dominated by restart
  // tails and the S-percentile model diverges by design; skip.
  if (eta > 0.95) return std::nullopt;
  ft::FtCostModel model(MakeContext(c));
  auto est = model.Estimate(*cp);
  if (!est.ok()) return "estimate failed: " + est.status().ToString();
  ClusterSimulator sim(c.cluster, c.sim);
  ft::SchemePlan scheme = MakeScheme(c, RecoveryMode::kFineGrained);
  std::vector<ClusterTrace> traces = c.trace.Materialize(c.cluster);
  auto agg = sim.RunMany(scheme, traces);
  if (!agg.ok()) return "RunMany failed: " + agg.status().ToString();
  if (agg->aborted > 0) return std::nullopt;  // tail regime, not comparable
  const double ratio = agg->runtime / std::max(est->dominant_cost, 1e-12);
  // Band calibrated over 512 generator seeds: observed ratios spanned
  // [0.52, 2.79] with median 1.09 (the S-percentile model is pessimistic
  // for deep plans, optimistic for long ops under bursty traces).
  if (ratio < 0.3 || ratio > 4.0) {
    return StrFormat(
        "sim mean %.9g vs analytic %.9g (ratio %.3f, eta=%.3f, "
        "makespan=%.9g)",
        agg->runtime, est->dominant_cost, ratio, eta, makespan);
  }
  return std::nullopt;
}

/// Analytic cost is non-increasing in MTBF (with the paper's t/2 wasted-
/// time approximation) — deterministic, no simulation involved.
std::optional<std::string> CheckMtbfMonotonicAnalytic(const ReproCase& c) {
  ft::FtCostContext context = MakeContext(c);
  context.model.exact_wasted_time = false;
  double prev = std::numeric_limits<double>::infinity();
  for (double factor : {1.0, 4.0, 16.0, 64.0}) {
    ft::FtCostContext scaled = context;
    scaled.cluster.mtbf_seconds = c.cluster.mtbf_seconds * factor;
    ft::FtCostModel model(scaled);
    auto est = model.Estimate(c.plan, c.config);
    if (!est.ok()) return "estimate failed: " + est.status().ToString();
    if (est->dominant_cost > prev * (1.0 + kRelTol)) {
      return StrFormat(
          "cost increased with MTBF: %.9g -> %.9g at factor %.0f", prev,
          est->dominant_cost, factor);
    }
    prev = est->dominant_cost;
  }
  return std::nullopt;
}

/// Analytic cost is non-decreasing in MTTR.
std::optional<std::string> CheckMttrMonotonicAnalytic(const ReproCase& c) {
  double prev = -1.0;
  for (double factor : {1.0, 4.0, 16.0, 64.0}) {
    ft::FtCostContext scaled = MakeContext(c);
    scaled.cluster.mttr_seconds = c.cluster.mttr_seconds * factor;
    ft::FtCostModel model(scaled);
    auto est = model.Estimate(c.plan, c.config);
    if (!est.ok()) return "estimate failed: " + est.status().ToString();
    if (est->dominant_cost < prev * (1.0 - kRelTol)) {
      return StrFormat(
          "cost decreased with MTTR: %.9g -> %.9g at factor %.0f", prev,
          est->dominant_cost, factor);
    }
    prev = est->dominant_cost;
  }
  return std::nullopt;
}

/// Statistical counterpart (skipped in --quick): a 16x better MTBF must
/// not make the simulated mean runtime meaningfully worse. Wide slack —
/// per-trace monotonicity does NOT hold (a lucky run under the bad MTBF
/// can dodge a failure the good-MTBF run hits), only means converge.
std::optional<std::string> CheckSimMtbfMonotonic(const ReproCase& c) {
  if (c.trace.kind != TraceKind::kIndependent) return std::nullopt;
  if (c.sim.monitoring_interval != 0.0) return std::nullopt;
  ClusterSimulator lo_sim(c.cluster, c.sim);
  ft::SchemePlan scheme = MakeScheme(c, RecoveryMode::kFineGrained);
  std::vector<ClusterTrace> lo_traces = c.trace.Materialize(c.cluster);
  auto lo = lo_sim.RunMany(scheme, lo_traces);
  if (!lo.ok()) return "RunMany failed: " + lo.status().ToString();
  cost::ClusterStats hi_stats = c.cluster;
  hi_stats.mtbf_seconds *= 16.0;
  ClusterSimulator hi_sim(hi_stats, c.sim);
  std::vector<ClusterTrace> hi_traces = c.trace.Materialize(hi_stats);
  auto hi = hi_sim.RunMany(scheme, hi_traces);
  if (!hi.ok()) return "RunMany failed: " + hi.status().ToString();
  if (lo->aborted > 0 || hi->aborted > 0) return std::nullopt;
  if (hi->runtime > lo->runtime * 1.5 + 1e-6) {
    return StrFormat("16x MTBF made the mean worse: %.9g -> %.9g",
                     lo->runtime, hi->runtime);
  }
  return std::nullopt;
}

/// The exact enumeration (heuristic rules 1-2 off; rule 3 is provably
/// lossless) can never be beaten by any single configuration, and the
/// default heuristically-pruned search can never beat the exact one.
std::optional<std::string> CheckEnumOptimality(const ReproCase& c) {
  ft::FtCostContext context = MakeContext(c);
  ft::EnumerationOptions exact_opts;
  exact_opts.pruning.rule1 = false;
  exact_opts.pruning.rule2 = false;
  ft::FtPlanEnumerator exact(context, exact_opts);
  auto best = exact.FindBest(c.plan);
  if (!best.ok()) return "FindBest failed: " + best.status().ToString();
  ft::FtCostModel model(context);
  const MaterializationConfig candidates[] = {
      MaterializationConfig::AllMat(c.plan),
      MaterializationConfig::NoMat(c.plan), c.config};
  const char* names[] = {"all-mat", "no-mat", "random"};
  for (int i = 0; i < 3; ++i) {
    auto est = model.Estimate(c.plan, candidates[i]);
    if (!est.ok()) return "estimate failed: " + est.status().ToString();
    if (best->estimated_cost > est->dominant_cost * (1.0 + kRelTol)) {
      return StrFormat(
          "exact enumeration cost %.9g beaten by %s config %.9g",
          best->estimated_cost, names[i], est->dominant_cost);
    }
  }
  ft::FtPlanEnumerator pruned(context);  // default: all rules on
  auto pruned_best = pruned.FindBest(c.plan);
  if (!pruned_best.ok()) {
    return "pruned FindBest failed: " + pruned_best.status().ToString();
  }
  if (pruned_best->estimated_cost < best->estimated_cost * (1.0 - kRelTol)) {
    return StrFormat(
        "pruned search %.9g beat the exhaustive optimum %.9g (unsound "
        "pruning)",
        pruned_best->estimated_cost, best->estimated_cost);
  }
  return std::nullopt;
}

/// Collapsing a plan that consists of exactly the collapsed operators
/// (each materialized) must be the identity: same shape, costs, makespan
/// and path count.
std::optional<std::string> CheckCollapseIdempotent(const ReproCase& c) {
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  plan::Plan plan2("recollapsed");
  for (const auto& op : cp->ops()) {
    plan::PlanNode node;
    node.type = plan::OpType::kMapUdf;
    node.label = StrFormat("c@%d", op.anchor);
    node.runtime_cost = op.runtime_cost;
    node.materialize_cost = op.materialize_cost;
    for (ft::CollapsedId in : op.inputs) {
      node.inputs.push_back(static_cast<plan::OpId>(in));
    }
    plan2.AddNode(std::move(node));
  }
  auto cp2 = CollapsedPlan::Create(
      plan2, MaterializationConfig::AllMat(plan2), c.sim.pipe_constant);
  if (!cp2.ok()) return "re-collapse failed: " + cp2.status().ToString();
  if (cp2->num_ops() != cp->num_ops()) {
    return StrFormat("re-collapse changed op count: %zu -> %zu",
                     cp->num_ops(), cp2->num_ops());
  }
  for (size_t i = 0; i < cp->num_ops(); ++i) {
    const auto& a = cp->op(static_cast<ft::CollapsedId>(i));
    // Anchor of the re-collapsed op is the plan2 node id == original id.
    const auto& b = cp2->op(static_cast<ft::CollapsedId>(i));
    if (static_cast<size_t>(b.anchor) != i) {
      return StrFormat("re-collapsed op %zu anchored at %d", i, b.anchor);
    }
    if (!Near(a.total_cost(), b.total_cost(), kRelTol)) {
      return StrFormat("op %zu cost changed: %.9g -> %.9g", i,
                       a.total_cost(), b.total_cost());
    }
    std::vector<ft::CollapsedId> ain = a.inputs, bin = b.inputs;
    std::sort(ain.begin(), ain.end());
    std::sort(bin.begin(), bin.end());
    if (ain != bin) return StrFormat("op %zu edges changed", i);
  }
  if (!Near(cp->MakespanNoFailure(), cp2->MakespanNoFailure(), kRelTol)) {
    return StrFormat("makespan changed: %.9g -> %.9g",
                     cp->MakespanNoFailure(), cp2->MakespanNoFailure());
  }
  if (cp->CountPaths() != cp2->CountPaths()) {
    return StrFormat("path count changed: %zu -> %zu", cp->CountPaths(),
                     cp2->CountPaths());
  }
  return std::nullopt;
}

/// Randomized identities of the closed-form failure math.
std::optional<std::string> CheckFailureMath(const ReproCase& c) {
  uint64_t state = c.seed ^ 0x94d049bb133111ebULL;
  Rng rng(SplitMix64(state));
  for (int iter = 0; iter < 20; ++iter) {
    const double mtbf = LogUniform(rng, 1.0, 1.0e6);
    const double t = LogUniform(rng, mtbf * 1e-4, mtbf * 10.0);
    // Continuity of the exact wasted time across its small-x series
    // branch: values just below and above x = t/MTBF = 1e-9 agree.
    const double t_cut = mtbf * 1e-9;
    const double below = ft::WastedTimeExact(t_cut * 0.999, mtbf);
    const double above = ft::WastedTimeExact(t_cut * 1.001, mtbf);
    if (!Near(below, above, 1e-2) ||
        !Near(below, t_cut * 0.999 / 2.0, 1e-2)) {
      return StrFormat(
          "WastedTimeExact discontinuous at cutoff (mtbf=%.6g): %.12g vs "
          "%.12g",
          mtbf, below, above);
    }
    // SuccessWithinAttempts is a CDF in the attempt count.
    double prev = -1.0;
    for (double attempts : {0.0, 1.0, 2.0, 5.0, 20.0}) {
      const double p = ft::SuccessWithinAttempts(t, mtbf, attempts);
      if (p < prev - kRelTol || p < 0.0 || p > 1.0 + kRelTol) {
        return StrFormat(
            "SuccessWithinAttempts not monotone: p(%g)=%.12g after %.12g",
            attempts, p, prev);
      }
      prev = p;
    }
    // a(c) stays finite and non-negative as eta -> 1.
    const double a = ft::ExpectedAttempts(mtbf * 50.0, mtbf, 0.95);
    if (!std::isfinite(a) || a < 0.0) {
      return StrFormat("ExpectedAttempts(eta->1) = %.9g", a);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Correlated-failure model checks
// ---------------------------------------------------------------------------

/// Metamorphic identity: with correlation at zero the correlated machinery
/// reproduces the independent model bit for bit — the closed forms and
/// every per-operator T(c).
std::optional<std::string> CheckCorrelationZeroIdentity(const ReproCase& c) {
  const ft::FtCostContext base = MakeContext(c);
  const ft::FailureParams params = base.MakeFailureParams();
  if (params.effective_mtbf_cost() != params.mtbf_cost) {
    return StrFormat(
        "effective_mtbf_cost %.17g != mtbf_cost %.17g without bursts",
        params.effective_mtbf_cost(), params.mtbf_cost);
  }
  if (params.burst_failure_share() != 0.0) {
    return StrFormat("burst_failure_share %.17g without bursts",
                     params.burst_failure_share());
  }
  auto cp = CollapsedPlan::Create(c.plan, c.config, c.sim.pipe_constant);
  if (!cp.ok()) return "collapse failed: " + cp.status().ToString();
  for (const auto& op : cp->ops()) {
    const double t = op.total_cost();
    // Default recovery terms are Eq. 8 written out, in the same order.
    const double a = ft::ExpectedAttempts(t, params.effective_mtbf_cost(),
                                          params.success_target);
    const double eq8 =
        t + a * ft::WastedTime(t, params) + a * params.mttr_cost;
    const double total = ft::OperatorTotalRuntime(t, params);
    if (total != eq8) {
      return StrFormat("T(t=%.9g) is %.17g, Eq. 8 written out %.17g", t,
                       total, eq8);
    }
  }
  return std::nullopt;
}

/// Higher correlation never decreases the predicted T(c) of any operator:
/// the dominant cost is non-decreasing in the burst rate and in the burst
/// fan-out (with the paper's t/2 wasted-time approximation, under
/// which T is monotone in the failure rate).
std::optional<std::string> CheckCorrelationMonotonic(const ReproCase& c) {
  ft::FtCostContext context = MakeContext(c);
  context.model.exact_wasted_time = false;
  context.cluster.burst_fanout = 1.0;
  double prev = -1.0;
  for (double interval :
       {0.0, c.cluster.mtbf_seconds * 64.0, c.cluster.mtbf_seconds * 16.0,
        c.cluster.mtbf_seconds * 4.0, c.cluster.mtbf_seconds}) {
    ft::FtCostContext scaled = context;
    scaled.cluster.burst_mtbf_seconds = interval;  // 0 = bursts off
    auto est = ft::FtCostModel(scaled).Estimate(c.plan, c.config);
    if (!est.ok()) return "estimate failed: " + est.status().ToString();
    if (est->dominant_cost < prev * (1.0 - kRelTol)) {
      return StrFormat(
          "cost decreased with burst rate: %.9g -> %.9g at interval %.9g",
          prev, est->dominant_cost, interval);
    }
    prev = est->dominant_cost;
  }
  context.cluster.burst_mtbf_seconds = c.cluster.mtbf_seconds * 4.0;
  prev = -1.0;
  for (double fanout : {0.25, 0.5, 1.0}) {
    ft::FtCostContext scaled = context;
    scaled.cluster.burst_fanout = fanout;
    auto est = ft::FtCostModel(scaled).Estimate(c.plan, c.config);
    if (!est.ok()) return "estimate failed: " + est.status().ToString();
    if (est->dominant_cost < prev * (1.0 - kRelTol)) {
      return StrFormat(
          "cost decreased with burst fanout: %.9g -> %.9g at fanout %.2f",
          prev, est->dominant_cost, fanout);
    }
    prev = est->dominant_cost;
  }
  return std::nullopt;
}

/// Under correlated burst traces the correlated model's predicted T(c)
/// must track the simulator strictly better than the independent model,
/// which only sees the (negligible) background process and predicts a
/// near-failure-free runtime. Summed |predicted - simulated p95| over a
/// small burst-interval grid; p95 is the simulated quantity T(c) bounds
/// (time to reach the success target S = 0.95).
std::optional<std::string> CheckCorrelatedModelVsSim(const ReproCase& c) {
  plan::PlanBuilder b("burst-chain");
  const plan::OpId s = b.Scan("s", 1e6, 100, 80.0);
  const plan::OpId f = b.Unary(plan::OpType::kFilter, "f", s, 70.0, 5.0);
  b.Unary(plan::OpType::kHashAggregate, "agg", f, 50.0, 5.0);
  const plan::Plan plan = std::move(b).Build();
  const MaterializationConfig config = MaterializationConfig::NoMat(plan);
  constexpr double kBackgroundMtbf = 1.0e8;  // bursts dominate
  const cost::ClusterStats stats =
      cost::MakeCluster(/*num_nodes=*/4, kBackgroundMtbf, /*mttr=*/10.0);

  ft::FtCostContext independent;
  independent.cluster = stats;
  ClusterSimulator sim(stats, cluster::SimulationOptions{});
  ft::SchemePlan scheme;
  scheme.kind = ft::SchemeKind::kCostBased;
  scheme.recovery = RecoveryMode::kFineGrained;
  scheme.plan = plan;
  scheme.config = config;

  double err_independent = 0.0;
  double err_correlated = 0.0;
  int grid_point = 0;
  for (double mean_interval : {150.0, 250.0, 400.0}) {
    ft::FtCostContext correlated = independent;
    correlated.cluster.burst_mtbf_seconds = mean_interval;
    correlated.cluster.burst_fanout = 1.0;  // every burst kills all nodes
    auto pred_ind = ft::FtCostModel(independent).Estimate(plan, config);
    auto pred_cor = ft::FtCostModel(correlated).Estimate(plan, config);
    if (!pred_ind.ok() || !pred_cor.ok()) return "estimate failed";

    cluster::BurstOptions burst;
    burst.mean_interval = mean_interval;
    burst.horizon = 1.0e6;
    burst.width = 1.0;
    burst.min_nodes = 4;
    burst.max_nodes = 4;
    burst.background_mtbf = kBackgroundMtbf;
    // 96 traces per grid point: the p95 of 24 samples is essentially the
    // second-largest draw and occasionally lands low enough to flip the
    // comparison on an unlucky seed (seed 140 of the 192-seed fuzz sweep
    // did exactly that); at 96 the worst seed in [0, 256) still leaves the
    // independent model behind by a wide margin.
    std::vector<ClusterTrace> traces = cluster::GenerateBurstTraceSet(
        stats, burst, /*count=*/96,
        c.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(++grid_point));
    auto agg = sim.RunMany(scheme, traces);
    if (!agg.ok()) return "RunMany failed: " + agg.status().ToString();
    if (agg->aborted > 0) continue;  // extreme tail; not comparable
    err_independent += std::abs(pred_ind->dominant_cost - agg->runtime_p95);
    err_correlated += std::abs(pred_cor->dominant_cost - agg->runtime_p95);
  }
  if (!(err_correlated < err_independent)) {
    return StrFormat(
        "correlated model no better than independent under bursts: "
        "sum|err| %.9g vs %.9g",
        err_correlated, err_independent);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Write-ahead lineage checks
// ---------------------------------------------------------------------------

/// Metamorphic identity: with a free log (write cost 0) and full-length
/// replay (factor 1) every WAL attempt spans exactly the operator's
/// duration, so the WAL simulator must reproduce the fine-grained
/// simulator bit for bit on the case's own plan, config and traces.
std::optional<std::string> CheckWalReplayUnityIdentity(const ReproCase& c) {
  cluster::SimulationOptions wal_opts = c.sim;
  wal_opts.wal_write_cost = 0.0;
  wal_opts.wal_replay_factor = 1.0;
  ClusterSimulator fine_sim(c.cluster, c.sim);
  ClusterSimulator wal_sim(c.cluster, wal_opts);
  std::vector<ClusterTrace> fine_traces = c.trace.Materialize(c.cluster);
  std::vector<ClusterTrace> wal_traces = c.trace.Materialize(c.cluster);
  for (size_t i = 0; i < fine_traces.size(); ++i) {
    auto fine = fine_sim.Run(c.plan, c.config, RecoveryMode::kFineGrained,
                             fine_traces[i]);
    auto wal = wal_sim.Run(c.plan, c.config, RecoveryMode::kWalReplay,
                           wal_traces[i]);
    if (!fine.ok()) return "fine sim failed: " + fine.status().ToString();
    if (!wal.ok()) return "wal sim failed: " + wal.status().ToString();
    if (fine->runtime != wal->runtime ||
        fine->completed != wal->completed ||
        fine->restarts != wal->restarts ||
        fine->failures_hit != wal->failures_hit ||
        fine->aborted != wal->aborted) {
      return StrFormat(
          "trace %zu: unity-replay WAL diverges from fine-grained: "
          "runtime %.17g vs %.17g, restarts %d vs %d",
          i, wal->runtime, fine->runtime, wal->restarts, fine->restarts);
    }
  }
  return std::nullopt;
}

/// The WAL-aware analytic model (durable runtime = t + write_cost *
/// lineage volume; wasted time scaled by the replay factor) must track
/// the WAL simulator strictly better than the WAL-blind independent
/// model, which neither charges the log writes nor credits the cheap
/// replay. Summed |predicted - simulated p95| over a runtime-scale grid
/// of the pipelined chain shape, plus the analytic_vs_sim ratio band per
/// grid point — the same tolerance tier as correlated_model_vs_sim.
std::optional<std::string> CheckWalModelVsSim(const ReproCase& c) {
  const cost::ClusterStats stats =
      cost::MakeCluster(/*num_nodes=*/4, /*mtbf=*/1500.0, /*mttr=*/10.0);
  constexpr double kWriteCost = 0.3;
  constexpr double kReplayFactor = 0.25;
  double err_wal = 0.0;
  double err_blind = 0.0;
  int grid_point = 0;
  for (double scale : {1.0, 2.0, 4.0}) {
    ++grid_point;
    const plan::Plan plan = cluster::MakePipelinedQuery(/*depth=*/6, scale);
    const MaterializationConfig config = MaterializationConfig::NoMat(plan);
    ft::FtCostContext wal_ctx;
    wal_ctx.cluster = stats;
    wal_ctx.model.wal_enabled = true;
    wal_ctx.model.wal_write_cost = kWriteCost;
    wal_ctx.model.wal_replay_factor = kReplayFactor;
    ft::FtCostContext blind_ctx;
    blind_ctx.cluster = stats;
    auto pred_wal = ft::FtCostModel(wal_ctx).Estimate(plan, config);
    auto pred_blind = ft::FtCostModel(blind_ctx).Estimate(plan, config);
    if (!pred_wal.ok() || !pred_blind.ok()) return "estimate failed";

    ClusterSimulator sim(stats, cluster::MatchModel(wal_ctx.model));
    ft::SchemePlan scheme;
    scheme.kind = ft::SchemeKind::kWriteAheadLineage;
    scheme.recovery = RecoveryMode::kWalReplay;
    scheme.plan = plan;
    scheme.config = config;
    std::vector<ClusterTrace> traces;
    traces.reserve(96);
    for (uint64_t i = 0; i < 96; ++i) {
      traces.push_back(ClusterTrace::Generate(
          stats, c.seed * 0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(grid_point) * 1024ULL + i));
    }
    auto agg = sim.RunMany(scheme, traces);
    if (!agg.ok()) return "RunMany failed: " + agg.status().ToString();
    if (agg->aborted > 0) continue;  // extreme tail; not comparable
    const double ratio =
        agg->runtime_p95 / std::max(pred_wal->dominant_cost, 1e-12);
    if (ratio < 0.3 || ratio > 4.0) {
      return StrFormat(
          "scale %.0f: WAL analytic %.9g vs sim p95 %.9g (ratio %.3f)",
          scale, pred_wal->dominant_cost, agg->runtime_p95, ratio);
    }
    err_wal += std::abs(pred_wal->dominant_cost - agg->runtime_p95);
    err_blind += std::abs(pred_blind->dominant_cost - agg->runtime_p95);
  }
  if (!(err_wal < err_blind)) {
    return StrFormat(
        "WAL model no better than WAL-blind model: sum|err| %.9g vs %.9g",
        err_wal, err_blind);
  }
  return std::nullopt;
}

/// Past the break-even runtime, write-ahead lineage must strictly beat
/// restart-from-scratch on the pipelined long-runtime shape: the log
/// write is a bounded tax while the restart scheme's expected cost grows
/// without bound in the query runtime (paper §3.3 logic applied to the
/// new scheme). Compared on identical trace sets; a restart abort with a
/// completed WAL run counts as a win.
std::optional<std::string> CheckWalBeatsRestart(const ReproCase& c) {
  const cost::ClusterStats stats =
      cost::MakeCluster(/*num_nodes=*/4, /*mtbf=*/1200.0, /*mttr=*/10.0);
  // Deep in the long-runtime regime: makespan is several MTBFs, so a
  // full restart almost never finishes a clean pass.
  const plan::Plan plan =
      cluster::MakePipelinedQuery(/*depth=*/6, /*runtime_scale=*/8.0);
  const MaterializationConfig config = MaterializationConfig::NoMat(plan);
  cluster::SimulationOptions opts;
  opts.wal_write_cost = 0.3;
  opts.wal_replay_factor = 0.25;
  ClusterSimulator sim(stats, opts);
  ft::SchemePlan wal = MakeScheme(c, RecoveryMode::kWalReplay);
  wal.plan = plan;
  wal.config = config;
  ft::SchemePlan restart = MakeScheme(c, RecoveryMode::kFullRestart);
  restart.plan = plan;
  restart.config = config;
  auto make_traces = [&] {
    std::vector<ClusterTrace> traces;
    traces.reserve(64);
    for (uint64_t i = 0; i < 64; ++i) {
      traces.push_back(ClusterTrace::Generate(
          stats, c.seed * 0x9e3779b97f4a7c15ULL + 7919ULL + i));
    }
    return traces;
  };
  auto wal_traces = make_traces();
  auto restart_traces = make_traces();
  auto wal_agg = sim.RunMany(wal, wal_traces);
  if (!wal_agg.ok()) return "WAL RunMany failed: " + wal_agg.status().ToString();
  auto restart_agg = sim.RunMany(restart, restart_traces);
  if (!restart_agg.ok()) {
    return "restart RunMany failed: " + restart_agg.status().ToString();
  }
  if (wal_agg->aborted > restart_agg->aborted) {
    return StrFormat("WAL aborted more often than restart: %d vs %d",
                     wal_agg->aborted, restart_agg->aborted);
  }
  if (restart_agg->aborted > wal_agg->aborted) return std::nullopt;  // win
  if (!(wal_agg->runtime < restart_agg->runtime)) {
    return StrFormat(
        "WAL mean %.9g not below restart mean %.9g past break-even",
        wal_agg->runtime, restart_agg->runtime);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Executor differential
// ---------------------------------------------------------------------------

/// Kills the first `budget[p]` dispatches on partition p — a replay of a
/// failure trace's per-node failure counts against the real executor.
class BudgetInjector final : public engine::StageFailureInjector {
 public:
  explicit BudgetInjector(std::vector<int> budgets)
      : budgets_(std::move(budgets)) {}

  bool InjectFailure(int, int partition, int) override {
    if (partition < 0 ||
        partition >= static_cast<int>(budgets_.size()) ||
        budgets_[static_cast<size_t>(partition)] <= 0) {
      return false;
    }
    --budgets_[static_cast<size_t>(partition)];
    return true;
  }

 private:
  std::vector<int> budgets_;
};

/// The real executor run under a trace-derived injector: bit-identical
/// deterministic outcome at 1/2/8 threads, final table equal to the
/// failure-free run, and the accounting contract intact.
std::optional<std::string> CheckExecutorDifferential(const ReproCase& c) {
  uint64_t state = c.seed ^ 0xbf58476d1ce4e5b9ULL;
  Rng rng(SplitMix64(state));
  const int partitions = 2 + static_cast<int>(rng.NextBounded(3));
  const engine::StagePlan splan = RandomStagePlan(rng);
  const engine::PartitionedDatabase db = MakeDummyDatabase(partitions);
  const plan::Plan skeleton = splan.ToPlanSkeleton();
  const MaterializationConfig config =
      MaterializationConfig::FromFreeMask(skeleton, rng.Next());

  // Budgets: each node's failure count inside a fixed horizon of its
  // Poisson trace.
  const double mtbf = LogUniform(rng, 50.0, 500.0);
  ClusterTrace trace =
      ClusterTrace::Generate(cost::MakeCluster(partitions, mtbf), rng.Next());
  std::vector<int> budgets(static_cast<size_t>(partitions));
  int total_budget = 0;
  for (int k = 0; k < partitions; ++k) {
    budgets[static_cast<size_t>(k)] =
        static_cast<int>(trace.node(k).CountFailuresUntil(100.0));
    total_budget += budgets[static_cast<size_t>(k)];
  }
  const int max_attempts = total_budget + 10;

  engine::FaultTolerantExecutor ref_exec(&splan, &db);
  ref_exec.set_num_threads(1);
  auto ref = ref_exec.Execute(config, nullptr, max_attempts);
  if (!ref.ok()) return "failure-free run failed: " + ref.status().ToString();

  std::optional<engine::FtExecutionResult> baseline;
  for (int threads : {1, 2, 8}) {
    engine::FaultTolerantExecutor executor(&splan, &db);
    executor.set_num_threads(threads);
    BudgetInjector injector(budgets);
    auto r = executor.Execute(config, &injector, max_attempts);
    if (!r.ok()) {
      return StrFormat("threads=%d: %s", threads,
                       r.status().ToString().c_str());
    }
    if (!exec::BitIdenticalTables(r->result, ref->result)) {
      return StrFormat("threads=%d: result differs from failure-free run",
                       threads);
    }
    if (r->failures_injected != total_budget) {
      return StrFormat("threads=%d: injected %d of %d budgeted failures",
                       threads, r->failures_injected, total_budget);
    }
    if (r->task_executions !=
        ref->task_executions + r->recovery_executions) {
      return StrFormat(
          "threads=%d: task_executions=%d != failure-free %d + recovery %d",
          threads, r->task_executions, ref->task_executions,
          r->recovery_executions);
    }
    if (r->recovery_executions < r->failures_injected) {
      return StrFormat("threads=%d: recovery %d < failures %d", threads,
                       r->recovery_executions, r->failures_injected);
    }
    if (!baseline.has_value()) {
      baseline = std::move(*r);
      continue;
    }
    if (r->failures_injected != baseline->failures_injected ||
        r->recovery_executions != baseline->recovery_executions ||
        r->task_executions != baseline->task_executions ||
        r->rows_materialized != baseline->rows_materialized ||
        r->bytes_materialized != baseline->bytes_materialized ||
        r->rows_recomputed != baseline->rows_recomputed ||
        r->bytes_recomputed != baseline->bytes_recomputed ||
        r->rows_lost != baseline->rows_lost ||
        r->bytes_lost != baseline->bytes_lost ||
        !exec::BitIdenticalTables(r->result, baseline->result)) {
      return StrFormat(
          "threads=%d: deterministic fields differ from 1-thread run",
          threads);
    }
  }

  // All-mat destroys nothing: a failure only costs the killed attempt.
  BudgetInjector all_mat_injector(budgets);
  engine::FaultTolerantExecutor all_mat_exec(&splan, &db);
  all_mat_exec.set_num_threads(2);
  auto all_mat = all_mat_exec.Execute(MaterializationConfig::AllMat(skeleton),
                                      &all_mat_injector, max_attempts);
  if (!all_mat.ok()) {
    return "all-mat run failed: " + all_mat.status().ToString();
  }
  if (all_mat->rows_lost != 0 || all_mat->bytes_lost != 0 ||
      all_mat->seconds_lost != 0.0) {
    return StrFormat("all-mat run lost work: rows=%zu bytes=%llu sec=%.6g",
                     all_mat->rows_lost,
                     static_cast<unsigned long long>(all_mat->bytes_lost),
                     all_mat->seconds_lost);
  }
  if (!exec::BitIdenticalTables(all_mat->result, ref->result)) {
    return "all-mat result differs from failure-free run";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Registry, runner, minimizer
// ---------------------------------------------------------------------------

struct CheckEntry {
  const char* name;
  std::optional<std::string> (*fn)(const ReproCase&);
  /// Runs on "sim" cases; executor checks run on "executor" cases.
  bool sim;
  /// Skipped under --quick.
  bool statistical;
};

constexpr CheckEntry kChecks[] = {
    {"runtime_lower_bound", CheckRuntimeLowerBound, true, false},
    {"runmany_differential", CheckRunManyDifferential, true, false},
    {"abort_cap", CheckAbortCap, true, false},
    {"analytic_bounds", CheckAnalyticBounds, true, false},
    {"analytic_vs_sim", CheckAnalyticVsSim, true, false},
    {"mtbf_monotonic_analytic", CheckMtbfMonotonicAnalytic, true, false},
    {"mttr_monotonic_analytic", CheckMttrMonotonicAnalytic, true, false},
    {"sim_mtbf_monotonic", CheckSimMtbfMonotonic, true, true},
    {"enum_optimality", CheckEnumOptimality, true, false},
    {"collapse_idempotent", CheckCollapseIdempotent, true, false},
    {"failure_math", CheckFailureMath, true, false},
    {"correlation_zero_identity", CheckCorrelationZeroIdentity, true, false},
    {"correlation_monotonic", CheckCorrelationMonotonic, true, false},
    // Statistical: 3 grid points x 96 burst traces per seed is too heavy
    // for crosscheck_quick under TSan's ~20x slowdown (the fuzz leg and
    // full runs still assert it).
    {"correlated_model_vs_sim", CheckCorrelatedModelVsSim, true, true},
    {"wal_replay_unity_identity", CheckWalReplayUnityIdentity, true, false},
    // Statistical for the same reason as correlated_model_vs_sim: a grid
    // of 96-trace simulations per seed is too heavy for the sanitizer
    // quick legs.
    {"wal_model_vs_sim", CheckWalModelVsSim, true, true},
    {"wal_beats_restart", CheckWalBeatsRestart, true, true},
    {"executor_differential", CheckExecutorDifferential, false, false},
};

/// Remove node `victim` from the plan, splicing its inputs into its
/// consumers; the materialization flags of the surviving operators are
/// preserved. Fails when the reduced plan/config is invalid.
Result<ReproCase> RemoveNode(const ReproCase& c, plan::OpId victim) {
  if (c.plan.num_nodes() <= 1) {
    return Status::InvalidArgument("cannot shrink single-node plan");
  }
  plan::Plan reduced(c.plan.name());
  for (plan::OpId id = 0; id < static_cast<plan::OpId>(c.plan.num_nodes());
       ++id) {
    if (id == victim) continue;
    plan::PlanNode node = c.plan.node(id);
    std::vector<plan::OpId> inputs;
    for (plan::OpId in : node.inputs) {
      if (in == victim) {
        for (plan::OpId vin : c.plan.node(victim).inputs) {
          inputs.push_back(vin);
        }
      } else {
        inputs.push_back(in);
      }
    }
    // Remap ids past the victim and drop duplicate edges.
    std::vector<plan::OpId> remapped;
    for (plan::OpId in : inputs) {
      const plan::OpId mapped = in > victim ? in - 1 : in;
      if (std::find(remapped.begin(), remapped.end(), mapped) ==
          remapped.end()) {
        remapped.push_back(mapped);
      }
    }
    node.inputs = std::move(remapped);
    node.id = plan::kInvalidOpId;  // reassigned by AddNode
    reduced.AddNode(std::move(node));
  }
  XDBFT_RETURN_NOT_OK(reduced.Validate());
  ReproCase out = c;
  out.plan = reduced;
  out.config = MaterializationConfig::NoMat(reduced);
  for (plan::OpId id = 0; id < static_cast<plan::OpId>(c.plan.num_nodes());
       ++id) {
    if (id == victim) continue;
    const plan::OpId mapped = id > victim ? id - 1 : id;
    if (c.config.materialized(id)) out.config.set_materialized(mapped, true);
  }
  XDBFT_RETURN_NOT_OK(out.config.Validate(reduced));
  return out;
}

bool StillFails(const std::string& check, const ReproCase& c) {
  auto v = RunCheck(check, c);
  return v.ok() && v->has_value();
}

}  // namespace

std::vector<std::string> CheckNames() {
  std::vector<std::string> names;
  for (const CheckEntry& e : kChecks) names.emplace_back(e.name);
  return names;
}

Result<std::optional<std::string>> RunCheck(const std::string& check,
                                            const ReproCase& c) {
  for (const CheckEntry& e : kChecks) {
    if (check != e.name) continue;
    if (e.sim != (c.kind == "sim")) {
      return Status::InvalidArgument("check " + check +
                                     " does not apply to kind " + c.kind);
    }
    return e.fn(c);
  }
  return Status::NotFound("unknown check: " + check);
}

ReproCase MakeSimCase(uint64_t seed, int traces) {
  ReproCase c;
  c.kind = "sim";
  c.seed = seed;
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0xc2b2ae3d27d4eb4fULL;
  Rng rng(SplitMix64(state));
  c.plan = RandomPlan(rng);
  c.cluster = RandomCluster(rng);
  c.config = RandomConfig(rng, c.plan);
  if (rng.NextDouble() < 0.25) c.sim.monitoring_interval = 2.0;
  c.trace = RandomTraceSpec(rng, traces);
  return c;
}

Result<ReproCase> MinimizeCase(const ReproCase& c) {
  if (c.kind != "sim") return c;
  ReproCase cur = c;
  // Fewer traces first: each deletion re-runs the check on a smaller set.
  while (cur.trace.count > 1) {
    ReproCase candidate = cur;
    candidate.trace.count = std::max(1, cur.trace.count / 2);
    if (!StillFails(cur.check, candidate)) break;
    cur = candidate;
  }
  // Greedy operator deletion to a local minimum.
  bool progress = true;
  while (progress && cur.plan.num_nodes() > 1) {
    progress = false;
    for (plan::OpId victim = 0;
         victim < static_cast<plan::OpId>(cur.plan.num_nodes()); ++victim) {
      auto candidate = RemoveNode(cur, victim);
      if (!candidate.ok()) continue;
      candidate->check = cur.check;
      if (StillFails(cur.check, *candidate)) {
        cur = *candidate;
        progress = true;
        break;
      }
    }
  }
  cur.minimized = true;
  return cur;
}

Result<CrosscheckReport> RunCrosscheck(const CrosscheckOptions& options) {
  CrosscheckReport report;
  g_aborts_observed.store(0, std::memory_order_relaxed);
  for (int i = 0; i < options.seeds; ++i) {
    const uint64_t seed = options.seed_base + static_cast<uint64_t>(i);
    ReproCase sim_case = MakeSimCase(seed, options.traces);
    ReproCase exec_case;
    exec_case.kind = "executor";
    exec_case.seed = seed;
    for (const CheckEntry& entry : kChecks) {
      if (options.quick && entry.statistical) continue;
      const ReproCase& base = entry.sim ? sim_case : exec_case;
      std::optional<std::string> violation = entry.fn(base);
      ++report.checks_run;
      if (!violation.has_value()) continue;
      ++report.violations;
      ReproCase repro = base;
      repro.check = entry.name;
      repro.detail = *violation;
      XDBFT_ASSIGN_OR_RETURN(ReproCase minimized, MinimizeCase(repro));
      // Re-derive the detail for the minimized shape when it changed.
      if (minimized.plan.num_nodes() != repro.plan.num_nodes()) {
        auto v = RunCheck(entry.name, minimized);
        if (v.ok() && v->has_value()) minimized.detail = **v;
      }
      std::string message = StrFormat(
          "seed %llu [%s]: %s", static_cast<unsigned long long>(seed),
          entry.name, minimized.detail.c_str());
      if (!options.postmortem_dir.empty()) {
        obs::RunReport pm;
        pm.tool = "crosscheck";
        pm.reason = message;
        pm.seed = seed;
        pm.replay = "xdbft_crosscheck --replay <reproducer>";
        pm.params["check"] = entry.name;
        pm.params["kind"] = minimized.kind;
        // The harness's own tally so far, this violation included.
        pm.metrics["crosscheck.seeds"] = report.seeds_run;
        pm.metrics["crosscheck.checks"] =
            static_cast<double>(report.checks_run);
        pm.metrics["crosscheck.violations"] = report.violations;
        pm.metrics["crosscheck.reproducers_written"] =
            static_cast<double>(report.repro_paths.size());
        pm.reproducer_json = ReproToJson(minimized);
        Result<std::string> pm_path =
            obs::WritePostMortem(options.postmortem_dir, pm);
        if (pm_path.ok()) message += " (post-mortem: " + *pm_path + ")";
      }
      report.messages.push_back(std::move(message));
      if (options.write_reproducers) {
        XDBFT_ASSIGN_OR_RETURN(std::string path,
                               WriteReproducer(options.out_dir, minimized));
        report.repro_paths.push_back(path);
      }
    }
    ++report.seeds_run;
  }
  report.aborts_observed =
      g_aborts_observed.load(std::memory_order_relaxed);
  return report;
}

Result<bool> ReplayReproducer(const std::string& path) {
  XDBFT_ASSIGN_OR_RETURN(ReproCase c, LoadReproducer(path));
  if (c.kind == "executor") {
    // Executor cases regenerate everything from the seed.
    ReproCase regenerated;
    regenerated.kind = "executor";
    regenerated.seed = c.seed;
    XDBFT_ASSIGN_OR_RETURN(auto v, RunCheck(c.check, regenerated));
    return v.has_value();
  }
  XDBFT_ASSIGN_OR_RETURN(auto v, RunCheck(c.check, c));
  return v.has_value();
}

}  // namespace xdbft::validate
