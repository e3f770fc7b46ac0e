// Figure 12 (Exp. 3a): accuracy of the cost model.
//  (a) Actual (simulated, mean of 10 traces) vs estimated runtime of the
//      cost-based plan for Q5/SF=100 under MTBFs from 1 month to 30 min.
//  (b) Actual vs estimated runtime of all 32 materialization
//      configurations of Q5 at MTBF = 1 hour, sorted by estimate.
//
// Everything is deterministic (fixed trace seeds), so the JSON rows
// (BENCH_fig12_accuracy.json when $XDBFT_BENCH_JSON_DIR is set) are an
// exact gate: one row per MTBF (pick, estimate, simulated time), one row
// per configuration keyed by its config string (the sort by estimate is
// not stable, so ranks are not keys), and one summary row with the
// model pick's regret against the simulator's best configuration and
// both correlations.
#include <cstdio>

#include <algorithm>
#include <numeric>

#include "bench/bench_util.h"
#include "cluster/simulator.h"
#include "common/math_util.h"
#include "ft/enumerator.h"
#include "tpch/queries.h"

using namespace xdbft;

namespace {

double SimulateMean(const plan::Plan& plan,
                    const ft::MaterializationConfig& config,
                    const cost::ClusterStats& stats, int traces = 10) {
  cluster::ClusterSimulator sim(stats);
  double total = 0.0;
  for (int i = 0; i < traces; ++i) {
    cluster::ClusterTrace trace = cluster::ClusterTrace::Generate(
        stats, 42 + 0x517cc1b727220a95ULL * static_cast<uint64_t>(i));
    auto r = sim.Run(plan, config, ft::RecoveryMode::kFineGrained, trace);
    total += r->runtime;
  }
  return total / traces;
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 12 — Accuracy of the Cost Model (Q5, SF=100)",
                     "Salama et al., SIGMOD'15, Fig. 12a/12b (Section 5.4)");

  tpch::TpchPlanConfig cfg;
  cfg.scale_factor = 100.0;
  auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  // (a) Varying MTBF: estimate vs actual for the cost-based plan.
  std::printf("(a) Varying MTBF (cost-based plan per MTBF)\n");
  bench::Table ta({"MTBF", "estimated(s)", "actual(s)", "error(%)"},
                  {10, 14, 12, 10});
  ta.PrintHeaderRow();
  bench::BenchJsonWriter json("fig12_accuracy");
  struct M {
    const char* name;
    double seconds;
  };
  const M mtbfs[] = {{"1 month", cost::kSecondsPerMonth},
                     {"1 week", cost::kSecondsPerWeek},
                     {"1 day", cost::kSecondsPerDay},
                     {"1 hour", cost::kSecondsPerHour},
                     {"30 min", 1800.0}};
  for (const auto& m : mtbfs) {
    ft::FtCostContext ctx;
    ctx.cluster = cost::MakeCluster(cfg.num_nodes, m.seconds, 1.0);
    ft::FtPlanEnumerator enumerator(ctx);
    auto best = enumerator.FindBest(*plan);
    if (!best.ok()) continue;
    const double actual =
        SimulateMean(best->plan, best->config, ctx.cluster);
    ta.PrintRow({m.name, StrFormat("%.1f", best->estimated_cost),
                 StrFormat("%.1f", actual),
                 StrFormat("%+.1f",
                           (best->estimated_cost / actual - 1.0) * 100.0)});
    json.Write(bench::JsonLine()
                   .Set("section", "mtbf")
                   .Set("mtbf", m.name)
                   .Set("mtbf_seconds", m.seconds)
                   .Set("pick", best->config.ToString())
                   .Set("estimated_s", best->estimated_cost)
                   .Set("actual_s", actual));
  }

  // (b) All 32 materialization configurations at MTBF = 1 hour.
  std::printf(
      "\n(b) All 32 materialization configurations (MTBF = 1 hour), sorted "
      "by estimate\n");
  ft::FtCostContext ctx;
  ctx.cluster = cost::MakeCluster(cfg.num_nodes, cost::kSecondsPerHour, 1.0);
  ft::FtPlanEnumerator enumerator(ctx);
  auto all = enumerator.EnumerateAll(*plan);
  if (!all.ok()) {
    std::fprintf(stderr, "enumeration error: %s\n",
                 all.status().ToString().c_str());
    return 1;
  }
  std::vector<size_t> order(all->size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*all)[a].second < (*all)[b].second;
  });

  const auto all_mat = ft::MaterializationConfig::AllMat(*plan);
  const auto no_mat = ft::MaterializationConfig::NoMat(*plan);

  bench::Table tb({"rank", "config", "estimated(s)", "actual(s)"},
                  {6, 18, 14, 12});
  tb.PrintHeaderRow();
  std::vector<double> est, act;
  // The simulator's best configuration, first in enumeration order on a
  // tie, and the simulated time of the model's pick.
  auto pick = enumerator.FindBest(*plan);
  if (!pick.ok()) {
    std::fprintf(stderr, "enumeration error: %s\n",
                 pick.status().ToString().c_str());
    return 1;
  }
  std::vector<double> actual_by_index(all->size());
  size_t best_index = 0;
  for (size_t i = 0; i < all->size(); ++i) {
    actual_by_index[i] = SimulateMean(*plan, (*all)[i].first, ctx.cluster);
    if (actual_by_index[i] < actual_by_index[best_index]) best_index = i;
  }
  double pick_actual = 0.0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const auto& [config, estimate] = (*all)[order[rank]];
    const double actual = actual_by_index[order[rank]];
    if (config == pick->config) pick_actual = actual;
    est.push_back(estimate);
    act.push_back(actual);
    json.Write(bench::JsonLine()
                   .Set("section", "config")
                   .Set("config", config.ToString())
                   .Set("estimated_s", estimate)
                   .Set("actual_s", actual));
    std::string tag = config.ToString();
    if (config == all_mat) tag += " (all-mat)";
    if (config == no_mat) tag += " (no-mat)";
    tb.PrintRow({StrFormat("%zu", rank + 1), tag,
                 StrFormat("%.1f", estimate), StrFormat("%.1f", actual)});
  }
  const double pearson = PearsonCorrelation(est, act);
  const double spearman = SpearmanCorrelation(est, act);
  const auto& [best_config, best_estimate] = (*all)[best_index];
  const double best_actual = actual_by_index[best_index];
  const double regret = pick_actual / best_actual - 1.0;
  std::printf(
      "\nPearson correlation(estimated, actual) = %.3f (paper: \"high "
      "correlation ... which validates our cost model\")\n",
      pearson);
  std::printf(
      "Spearman rank correlation                = %.3f\n", spearman);
  std::printf(
      "Model pick %s: estimated %.1f s, actual %.1f s; simulator's best "
      "%s: actual %.1f s (estimated %.1f s); regret %.1f%%\n",
      pick->config.ToString().c_str(), pick->estimated_cost, pick_actual,
      best_config.ToString().c_str(), best_actual, best_estimate,
      regret * 100.0);
  json.Write(bench::JsonLine()
                 .Set("section", "summary")
                 .Set("pick", pick->config.ToString())
                 .Set("pick_estimated_s", pick->estimated_cost)
                 .Set("pick_actual_s", pick_actual)
                 .Set("best", best_config.ToString())
                 .Set("best_estimated_s", best_estimate)
                 .Set("best_actual_s", best_actual)
                 .Set("regret", regret)
                 .Set("pearson", pearson)
                 .Set("spearman", spearman));
  return 0;
}
