// xdbft_advisor — command-line front end of the fault-tolerance advisor.
//
// Reads an execution plan in the plan-text format (see plan/plan_text.h),
// runs the cost-based fault-tolerance scheme for the given cluster, prints
// the chosen materialization configuration and a scheme comparison, and
// optionally validates the choice by simulating execution under injected
// failures.
//
// Usage:
//   xdbft_advisor --plan plan.txt [--nodes N] [--mtbf SECONDS]
//                 [--mttr SECONDS] [--burst-mtbf S] [--burst-fanout F]
//                 [--success-target S] [--pipe-constant C]
//                 [--scheme NAME] [--wal-write-cost C]
//                 [--scale-success-with-cluster] [--greedy]
//                 [--threads N] [--exec-threads N] [--simulate TRACES]
//                 [--metrics-json PATH] [--trace-out PATH]
//                 [--profile] [--postmortem-dir DIR]
//   xdbft_advisor --profile [--metrics-json PATH]
//   xdbft_advisor --emit-q5 SF [--storage-mibps MIB]
//
// --greedy replaces the exhaustive search by greedy hill climbing
// (ft/greedy.h), the only path for plans with more free operators than
// the enumerator's max_free_operators guard admits.
//
// A sustained request load against the cached AdvisorService is
// perfbench's plan_validate workload; AdvisorServiceTest checks that
// concurrent cached answers equal fresh ones bit for bit.
//
// --scheme NAME forces one fixed fault-tolerance scheme instead of the
// cost-based search: all-mat, no-mat-lineage, no-mat-restart, cost-based
// or wal (write-ahead lineage). Forcing wal enables the WAL cost terms;
// --wal-write-cost C sets the per-unit lineage log-write cost (and
// likewise enables WAL in the model, so the cost-based search may pick a
// WAL-shaped plan when the log tax beats materialization).
//
// --burst-mtbf S / --burst-fanout F enable the correlated-failure model:
// S is the mean seconds between correlated bursts, F the fraction of the
// cluster each burst takes down (0 disables it — the independent model;
// see DESIGN.md §13). Non-finite or non-positive cluster/model inputs are
// rejected up front with an InvalidArgument.
//
// Every numeric flag value must be a whole, finite number; integer flags
// must also be integral and within their bounds (--nodes in [1, 4096];
// --simulate, --threads and --exec-threads in [0, 1024]). Otherwise the
// tool names the flag and exits 1. Unknown or incomplete flags print the
// usage and exit 2.
//
// --threads N runs the FT-plan enumeration on N worker threads (default 0
// = one per hardware thread; the chosen plan is identical at any value).
//
// --exec-threads N runs the validation execution's partition tasks on N
// TaskPool workers (default 0 = one per hardware thread; the query result
// and failure/recovery counts are identical at any value).
//
// --emit-q5 SF prints the built-in TPC-H Q5 plan at the given scale factor
// in plan-text format (a quick way to get a realistic input file);
// --storage-mibps overrides the emitted plan's materialization-store
// bandwidth (slower stores raise tm relative to tr, which is what pruning
// rules 1/2 key on — see bench/fig13_pruning.cc for the calibration).
//
// Observability (see DESIGN.md "Observability"):
//   --metrics-json PATH  write a RunReport as JSON: the params plus this
//                        invocation's own numbers — enumerator.* from the
//                        FT-plan search (zero when --greedy or a fixed
//                        --scheme skips it), executor.* from a small
//                        in-process validation execution (tiny TPC-H + Q5
//                        stage plan + scripted failures, which also yields
//                        the observed row of the accuracy report) and,
//                        with --simulate, simulator.* from the simulated
//                        traces.
//   --trace-out PATH     write a Chrome trace-event JSON timeline (load in
//                        chrome://tracing or https://ui.perfetto.dev) drawn
//                        from attempt timelines: the validation execution
//                        on wall-clock time (pid 0), with --simulate the
//                        first simulated trace on virtual time (pid 1), and
//                        the enumeration's worker spans (pid 2).
//   --profile            run TPC-H Q1/Q3/Q5/Q1C/Q2C over a tiny generated
//                        database on both engines with per-operator
//                        profiling and print one EXPLAIN ANALYZE tree per
//                        stage (also embedded in --metrics-json under
//                        "profiles"; standalone, the report holds only
//                        the profiles).
//                        Works standalone, without --plan.
//   --postmortem-dir DIR if the validation execution aborts, write a
//                        post-mortem bundle (the aborted run's attempt
//                        timeline and executor.* numbers) into DIR.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "api/xdbft.h"
#include "engine/ft_executor.h"
#include "obs/attempt_log.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "plan/plan_text.h"

#include "parse_number.h"

using namespace xdbft;

namespace {

struct Args {
  std::string plan_path;
  int nodes = 10;
  double mtbf = cost::kSecondsPerDay;
  double mttr = 1.0;
  // Correlated failures (0 bursts = independent model).
  double burst_mtbf = 0.0;
  double burst_fanout = 1.0;
  double success_target = 0.95;
  double pipe_constant = 1.0;
  bool scale_success = false;
  bool greedy = false;
  // --scheme: force one fixed scheme ("" = cost-based search).
  std::string scheme;
  // --wal-write-cost: per-unit lineage log-write cost (0 = model default;
  // any positive value also enables the WAL cost terms).
  double wal_write_cost = 0.0;
  int threads = 0;       // 0 = hardware concurrency
  int exec_threads = 0;  // 0 = hardware concurrency
  int simulate_traces = 0;
  double emit_q5_sf = 0.0;
  double storage_mibps = 0.0;  // 0 = TpchPlanConfig default
  std::string metrics_json;
  std::string trace_out;
  bool profile = false;
  std::string postmortem_dir;
};

// Maps the --scheme spelling onto SchemeKind. Accepts the hyphenated
// names printed by SchemeKindName plus the short "wal" alias.
bool ParseSchemeKind(const std::string& name, ft::SchemeKind* out) {
  if (name == "all-mat") {
    *out = ft::SchemeKind::kAllMat;
  } else if (name == "no-mat-lineage") {
    *out = ft::SchemeKind::kNoMatLineage;
  } else if (name == "no-mat-restart") {
    *out = ft::SchemeKind::kNoMatRestart;
  } else if (name == "cost-based") {
    *out = ft::SchemeKind::kCostBased;
  } else if (name == "wal" || name == "write-ahead-lineage") {
    *out = ft::SchemeKind::kWriteAheadLineage;
  } else {
    return false;
  }
  return true;
}

// Folds the WAL CLI knobs into the cost model: a positive
// --wal-write-cost or a forced wal scheme switches the WAL terms on.
void ApplyWalArgs(const Args& args, cost::CostModelParams* model) {
  if (args.wal_write_cost > 0.0) {
    model->wal_enabled = true;
    model->wal_write_cost = args.wal_write_cost;
  }
  if (args.scheme == "wal" || args.scheme == "write-ahead-lineage") {
    model->wal_enabled = true;
  }
}

// All clusters the advisor reasons about carry the burst parameters, so
// the one MakeCluster call site that forgets them cannot silently fall
// back to the independent model.
cost::ClusterStats MakeStats(const Args& args, double mtbf) {
  cost::ClusterStats stats = cost::MakeCluster(args.nodes, mtbf, args.mttr);
  stats.burst_mtbf_seconds = args.burst_mtbf;
  stats.burst_fanout = args.burst_fanout;
  return stats;
}

// Rejects non-finite / non-positive cluster or model parameters up front
// with an InvalidArgument instead of letting NaNs reach the enumerator.
bool ValidateParams(const ft::FtCostContext& context) {
  const Status s = context.Validate();
  if (!s.ok()) {
    std::fprintf(stderr, "invalid parameters: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan FILE [--nodes N] [--mtbf S] [--mttr S]\n"
      "          [--burst-mtbf S] [--burst-fanout F]\n"
      "          [--success-target S] [--pipe-constant C]\n"
      "          [--scheme all-mat|no-mat-lineage|no-mat-restart|"
      "cost-based|wal]\n"
      "          [--wal-write-cost C]\n"
      "          [--scale-success-with-cluster] [--greedy]\n"
      "          [--threads N] [--exec-threads N] [--simulate TRACES]\n"
      "          [--metrics-json PATH] [--trace-out PATH]\n"
      "          [--profile] [--postmortem-dir DIR]\n"
      "       %s --profile [--metrics-json PATH]\n"
      "       %s --emit-q5 SF [--storage-mibps MIB]\n",
      argv0, argv0, argv0);
}

// The flag table entry naming `flag`, or nullptr.
template <typename T, size_t N>
T* Lookup(const std::pair<const char*, T*> (&table)[N],
          const std::string& flag) {
  for (const auto& [name, target] : table) {
    if (flag == name) return target;
  }
  return nullptr;
}

// Returns 0 when every argument parsed, 1 for a malformed numeric value
// (the flag is named on stderr) and 2 for an unknown or incomplete flag.
int ParseArgs(int argc, char** argv, Args* args) {
  const std::pair<const char*, bool*> switches[] = {
      {"--scale-success-with-cluster", &args->scale_success},
      {"--greedy", &args->greedy},
      {"--profile", &args->profile}};
  const std::pair<const char*, std::string*> strings[] = {
      {"--plan", &args->plan_path},
      {"--scheme", &args->scheme},
      {"--metrics-json", &args->metrics_json},
      {"--trace-out", &args->trace_out},
      {"--postmortem-dir", &args->postmortem_dir}};
  const std::pair<const char*, double*> doubles[] = {
      {"--mtbf", &args->mtbf},
      {"--mttr", &args->mttr},
      {"--burst-mtbf", &args->burst_mtbf},
      {"--burst-fanout", &args->burst_fanout},
      {"--success-target", &args->success_target},
      {"--pipe-constant", &args->pipe_constant},
      {"--wal-write-cost", &args->wal_write_cost},
      {"--emit-q5", &args->emit_q5_sf},
      {"--storage-mibps", &args->storage_mibps}};
  // Integer flags size worker threads, the simulated cluster or its trace
  // set; the bounds keep each from asking for millions.
  struct IntFlag {
    const char* name;
    int* value;
    int lo;
    int hi;
  };
  const IntFlag ints[] = {
      {"--nodes", &args->nodes, 1, 4096},
      {"--threads", &args->threads, 0, 1024},
      {"--exec-threads", &args->exec_threads, 0, 1024},
      {"--simulate", &args->simulate_traces, 0, 1024}};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (bool* on = Lookup(switches, a)) {
      *on = true;
      continue;
    }
    std::string* text = Lookup(strings, a);
    double* real = Lookup(doubles, a);
    const IntFlag* integer = nullptr;
    for (const IntFlag& flag : ints) {
      if (a == flag.name) integer = &flag;
    }
    if ((text == nullptr && real == nullptr && integer == nullptr) ||
        i + 1 >= argc) {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return 2;
    }
    const char* value = argv[++i];
    std::string expected;
    if (text != nullptr) {
      *text = value;
    } else if (real != nullptr && !tools::ParseDouble(value, real)) {
      expected = "a finite number";
    } else if (integer != nullptr &&
               !tools::ParseInt(value, integer->value, integer->lo,
                                integer->hi)) {
      expected = "an integer in [" + std::to_string(integer->lo) + ", " +
                 std::to_string(integer->hi) + "]";
    }
    if (!expected.empty()) {
      std::fprintf(stderr, "invalid value for %s: '%s' (expected %s)\n",
                   a.c_str(), value, expected.c_str());
      return 1;
    }
  }
  return 0;
}

// Runs the built-in Q5 stage plan over a tiny generated TPC-H database
// with scripted failures on the first two partition-parallel stages. This
// adds the run's executor.* numbers, with real recovery work, to
// `metrics` and yields an observed row for the accuracy report. When
// `trace` is non-null, the run's attempt timeline is drawn into it on
// wall-clock time as pid 0.
Result<ft::ObservedExecution> RunValidationExecution(
    obs::TraceRecorder* trace, int exec_threads,
    const std::string& postmortem_dir,
    std::map<std::string, double>* metrics) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.002;
  opts.seed = 7;
  XDBFT_ASSIGN_OR_RETURN(datagen::TpchDatabase db,
                         datagen::GenerateTpch(opts));
  XDBFT_ASSIGN_OR_RETURN(engine::PartitionedDatabase pd,
                         engine::DistributeTpch(db, 3));
  const engine::StagePlan q5 = engine::MakeQ5StagePlan(pd);
  const ft::MaterializationConfig config =
      ft::MaterializationConfig::AllMat(q5.ToPlanSkeleton());
  std::vector<std::pair<int, int>> victims;
  for (int s = 0; s < q5.num_stages() && victims.size() < 2; ++s) {
    if (!q5.stage(s).global) {
      victims.emplace_back(s, static_cast<int>(victims.size()));
    }
  }
  engine::ScriptedInjector injector(std::move(victims));
  engine::FaultTolerantExecutor executor(&q5, &pd);
  executor.set_num_threads(exec_threads);
  if (!postmortem_dir.empty()) executor.set_postmortem_dir(postmortem_dir);
  XDBFT_ASSIGN_OR_RETURN(engine::FtExecutionResult r,
                         executor.Execute(config, &injector));
  engine::AddRunMetrics(r, metrics);
  if (trace != nullptr) {
    obs::AddToTrace(r.timeline, trace, /*pid=*/0, "ft_executor: " + q5.name(),
                    /*us_per_second=*/1e6);
  }
  ft::ObservedExecution observed;
  observed.source = "ft_executor (validation: tiny TPC-H Q5)";
  observed.failures = r.failures_injected;
  observed.recovery_executions = r.recovery_executions;
  observed.task_executions = r.task_executions;
  observed.runtime_seconds = r.wall_seconds;
  return observed;
}

// --profile: run the five paper queries (Q1/Q3/Q5/Q1C/Q2C) as stage plans
// over a tiny generated TPC-H database, failure-free on both engines with
// per-operator profiling on, and print one EXPLAIN ANALYZE tree per stage.
// The collected profiles (labels prefixed with the query name) are
// appended to *profiles for --metrics-json.
Status RunProfileDemo(std::vector<obs::QueryProfile>* profiles) {
  datagen::TpchGenOptions opts;
  opts.scale_factor = 0.01;
  opts.seed = 7;
  XDBFT_ASSIGN_OR_RETURN(datagen::TpchDatabase db,
                         datagen::GenerateTpch(opts));
  XDBFT_ASSIGN_OR_RETURN(engine::PartitionedDatabase pd,
                         engine::DistributeTpch(db, 3));
  struct Query {
    const char* name;
    engine::StagePlan (*make)(const engine::PartitionedDatabase&,
                              engine::ExecOptions);
  };
  const Query kQueries[] = {{"Q1", &engine::MakeQ1StagePlan},
                            {"Q3", &engine::MakeQ3StagePlan},
                            {"Q5", &engine::MakeQ5StagePlan},
                            {"Q1C", &engine::MakeQ1CStagePlan},
                            {"Q2C", &engine::MakeQ2CStagePlan}};
  for (const engine::ExecMode mode :
       {engine::ExecMode::kRow, engine::ExecMode::kVectorized}) {
    const bool vectorized = mode == engine::ExecMode::kVectorized;
    engine::ExecOptions eopts;
    eopts.mode = mode;
    eopts.profile = true;
    for (const Query& q : kQueries) {
      const engine::StagePlan plan = q.make(pd, eopts);
      engine::FaultTolerantExecutor executor(&plan, &pd);
      XDBFT_ASSIGN_OR_RETURN(
          engine::FtExecutionResult exec,
          executor.Execute(
              ft::MaterializationConfig::AllMat(plan.ToPlanSkeleton())));
      std::printf("\nEXPLAIN ANALYZE %s (tiny TPC-H sf=0.01, %s engine):\n",
                  q.name, vectorized ? "vectorized" : "row");
      for (obs::QueryProfile& p : exec.stage_profiles) {
        std::printf("%s", p.ToText().c_str());
        p.label = std::string(q.name) + "/" + p.label;
        profiles->push_back(std::move(p));
      }
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const int rc = ParseArgs(argc, argv, &args); rc != 0) {
    if (rc == 2) Usage(argv[0]);
    return rc;
  }

  if (args.emit_q5_sf > 0.0) {
    tpch::TpchPlanConfig cfg;
    cfg.scale_factor = args.emit_q5_sf;
    if (args.storage_mibps > 0.0) {
      cfg.storage_bandwidth_bps = args.storage_mibps * 1024 * 1024;
    }
    auto plan = tpch::BuildQuery(tpch::TpchQuery::kQ5, cfg);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", plan::PlanToText(*plan).c_str());
    return 0;
  }

  std::vector<obs::QueryProfile> profiles;
  if (args.profile) {
    const Status s = RunProfileDemo(&profiles);
    if (!s.ok()) {
      std::fprintf(stderr, "profile run failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  if (args.plan_path.empty()) {
    if (args.profile) {
      // Standalone --profile: no plan to advise on; optionally persist the
      // profile trees.
      if (!args.metrics_json.empty()) {
        obs::RunReport report;
        report.tool = "xdbft_advisor";
        report.profiles = std::move(profiles);
        const Status s = report.WriteFile(args.metrics_json);
        if (!s.ok()) {
          std::fprintf(stderr, "error writing %s: %s\n",
                       args.metrics_json.c_str(), s.ToString().c_str());
          return 1;
        }
        std::printf("\nWrote metrics report to %s\n",
                    args.metrics_json.c_str());
      }
      return 0;
    }
    Usage(argv[0]);
    return 2;
  }
  std::ifstream in(args.plan_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 args.plan_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto plan = plan::PlanFromText(buf.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "error parsing plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  const cost::ClusterStats stats = MakeStats(args, args.mtbf);
  cost::CostModelParams model;
  model.success_target = args.success_target;
  model.pipe_constant = args.pipe_constant;
  model.scale_success_target_with_cluster = args.scale_success;
  ApplyWalArgs(args, &model);
  const ft::FtCostContext context{stats, model};
  if (!ValidateParams(context)) return 1;

  ft::SchemeKind forced_kind = ft::SchemeKind::kCostBased;
  const bool forced_scheme = !args.scheme.empty();
  if (forced_scheme && !ParseSchemeKind(args.scheme, &forced_kind)) {
    std::fprintf(stderr,
                 "unknown --scheme '%s' (expected all-mat, no-mat-lineage, "
                 "no-mat-restart, cost-based or wal)\n",
                 args.scheme.c_str());
    return 2;
  }

  obs::TraceRecorder trace;
  obs::TraceRecorder* trace_ptr =
      args.trace_out.empty() ? nullptr : &trace;

  ft::EnumerationOptions eopts;
  eopts.num_threads = args.threads;
  eopts.trace = trace_ptr;  // pid 2: per-worker lanes of the enumeration
  eopts.trace_pid = 2;
  if (trace_ptr != nullptr) {
    trace.SetProcessName(2, "ft-plan enumeration (wall clock)");
  }
  // The comparison instantiates every scheme, the cost-based one included,
  // so the default answer is its cost-based entry: one findBestFTPlan
  // search per invocation, as in cluster_advisor.
  const Result<ft::SchemeComparison> comparison =
      ft::CompareSchemes(*plan, context, eopts);
  Result<ft::SchemePlan> chosen = [&]() -> Result<ft::SchemePlan> {
    if (forced_scheme) {
      return ft::ApplyScheme(forced_kind, *plan, context, eopts);
    }
    if (!args.greedy) {
      XDBFT_RETURN_NOT_OK(comparison.status());
      for (const ft::SchemePlan& sp : comparison->schemes) {
        if (sp.kind == ft::SchemeKind::kCostBased) return sp;
      }
      return Status::Internal("scheme comparison has no cost-based entry");
    }
    // Greedy hill climbing for plans too wide to enumerate.
    XDBFT_ASSIGN_OR_RETURN(ft::GreedyResult g,
                           ft::GreedyMaterialization(*plan, context));
    ft::SchemePlan sp;
    sp.kind = ft::SchemeKind::kCostBased;
    sp.recovery = ft::CostBasedRecovery(model);
    sp.plan = *plan;
    sp.config = std::move(g.config);
    sp.estimated_cost = g.estimated_cost;
    return sp;
  }();
  if (!chosen.ok()) {
    std::fprintf(stderr, "advisor error: %s\n",
                 chosen.status().ToString().c_str());
    return 1;
  }
  std::cout << ft::Explain(*chosen, context);

  const bool observability = !args.metrics_json.empty() || trace_ptr;
  // This invocation's numbers for --metrics-json, one layer at a time.
  std::map<std::string, double> metrics;
  ft::AddRunMetrics(chosen->stats, &metrics);

  if (observability) {
    auto report = ft::BuildAccuracyReport(*plan, chosen->config, context);
    auto observed = RunValidationExecution(
        trace_ptr, args.exec_threads, args.postmortem_dir, &metrics);
    if (report.ok()) {
      if (observed.ok()) report->observed.push_back(*observed);
      std::printf("\n%s", report->ToString().c_str());
    }
    if (!observed.ok()) {
      std::fprintf(stderr, "validation execution failed: %s\n",
                   observed.status().ToString().c_str());
    }
  }

  if (comparison.ok()) {
    std::printf("\nScheme comparison (estimated runtime under failures):\n");
    for (const ft::SchemePlan& sp : comparison->schemes) {
      std::printf("  %-18s %12.1fs  (%zu materialized)\n",
                  ft::SchemeKindName(sp.kind), sp.estimated_cost,
                  sp.config.NumMaterialized());
    }
  }

  if (args.simulate_traces > 0) {
    cluster::ClusterSimulator simulator(stats, cluster::MatchModel(model));
    auto baseline = simulator.BaselineRuntime(*plan);
    auto traces = cluster::GenerateTraceSet(
        stats, args.simulate_traces, /*base_seed=*/42);
    auto result = simulator.RunMany(*chosen, traces);
    if (result.ok()) cluster::AddRunMetrics(*result, &metrics);
    if (result.ok() && baseline.ok()) {
      std::printf(
          "\nSimulated over %d failure traces: mean runtime %.1fs "
          "(baseline %.1fs, overhead %.1f%%, %d sub-plan restarts)\n",
          args.simulate_traces, result->runtime, *baseline,
          cluster::OverheadPercent(result->runtime, *baseline),
          result->restarts);
    }
    if (trace_ptr != nullptr) {
      // The first of those traces once more with its attempts recorded,
      // drawn on virtual time (1 simulated second = 1 ms) as pid 1.
      obs::AttemptTimeline attempts;
      cluster::SimulationOptions sim_options = cluster::MatchModel(model);
      sim_options.attempt_log = &attempts;
      auto r = cluster::ClusterSimulator(stats, sim_options)
                   .Run(*chosen, traces[0]);
      if (!r.ok()) {
        std::fprintf(stderr, "traced simulation failed: %s\n",
                     r.status().ToString().c_str());
      }
      obs::AddToTrace(attempts, trace_ptr, /*pid=*/1,
                      "simulator (virtual time: 1 sim s = 1 ms)",
                      /*us_per_second=*/1000.0);
    }
  }

  if (trace_ptr != nullptr) {
    const Status s = trace.WriteFile(args.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", args.trace_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("\nWrote Chrome trace (%zu events) to %s\n",
                trace.num_events(), args.trace_out.c_str());
  }
  if (!args.metrics_json.empty()) {
    obs::RunReport report;
    report.tool = "xdbft_advisor";
    report.plan_name = plan->name();
    report.config_summary = chosen->config.ToString();
    report.params["nodes"] = std::to_string(args.nodes);
    report.params["mtbf_seconds"] = std::to_string(args.mtbf);
    report.params["mttr_seconds"] = std::to_string(args.mttr);
    report.params["success_target"] = std::to_string(args.success_target);
    report.params["pipe_constant"] = std::to_string(args.pipe_constant);
    report.params["simulate_traces"] = std::to_string(args.simulate_traces);
    report.params["greedy"] = args.greedy ? "true" : "false";
    if (forced_scheme) report.params["scheme"] = args.scheme;
    if (model.wal_enabled) {
      report.params["wal_write_cost"] = std::to_string(model.wal_write_cost);
    }
    report.params["threads"] =
        std::to_string(ft::FtPlanEnumerator::ResolveThreads(args.threads));
    report.params["exec_threads"] = std::to_string(
        engine::FaultTolerantExecutor::ResolveThreads(args.exec_threads));
    report.profiles = std::move(profiles);
    report.metrics = std::move(metrics);
    const Status s = report.WriteFile(args.metrics_json);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n",
                   args.metrics_json.c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("Wrote metrics report to %s\n", args.metrics_json.c_str());
  }
  return 0;
}
