// FaultTolerantExecutor: executes a StagePlan under a materialization
// configuration with *injected mid-query failures and real recovery* — the
// in-process counterpart of the paper's XDB execution layer (§5.1: "a
// query coordinator monitors the execution of individual sub-plans and
// restarts them once a failure is detected").
//
// Semantics:
//  - Each (stage, partition) task produces a table. Tasks of materialized
//    stages write to fault-tolerant storage: their outputs survive any
//    failure (the §2.2 assumption). Outputs of non-materialized stages
//    live in the producing node's memory.
//  - An injected failure of node p destroys every non-materialized output
//    that node holds; the coordinator then recovers by recomputing p's
//    lost chain from the last materialized ancestors — exactly the
//    fine-grained scheme.
//  - Under write-ahead lineage (set_wal(true)), every completed
//    non-materialized output is additionally appended to a durable
//    lineage log (charged to rows_logged/bytes_logged up front). A node
//    failure then no longer forces recomputation: the dead node's
//    outputs are replayed from the log at the wave barrier
//    (replay_executions / rows_replayed), and only the killed attempt
//    itself re-runs.
//  - Global stages run on the coordinator and are treated as materialized.
//
// Execution model (see DESIGN.md "Execution concurrency"): an iterative,
// dependency-driven scheduler runs in *waves*. Each wave the coordinator
// computes the demand closure of missing outputs from the final stage,
// dispatches every runnable partition task onto a work-stealing TaskPool
// (global stages run on the coordinator itself), and applies failures at
// the wave barrier. All injector calls happen on the coordinator in
// ascending (stage, partition) order, so the injected failure schedule,
// every attempt count, and the final table are bit-identical at any
// thread count; only wall-clock timings vary.
//
// Failure accounting contract: an injected failure strikes *at dispatch*,
// before the attempt's operator starts — a killed attempt therefore
// consumes an attempt slot (task_executions) but contributes zero
// stage_seconds and produces no rows. The real work a failure wastes is
// the completed outputs it destroys (§3.5); that is measured exactly and
// charged to rows_lost / bytes_lost / seconds_lost when the failed node's
// non-materialized outputs are invalidated.
//
// The injected failures are logical (no real machines die); what is real
// is the recovery path: recomputation re-runs the actual operators over
// the actual data, and tests assert the final result is identical to a
// failure-free run under every configuration and thread count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/stage_plan.h"
#include "ft/mat_config.h"
#include "obs/attempt_log.h"
#include "obs/query_profile.h"

namespace xdbft::engine {

/// \brief Decides which task attempts fail. The executor makes every call
/// from the coordinator thread in a deterministic order (ascending
/// (stage, partition) per scheduling wave), so implementations may keep
/// unsynchronized internal state (e.g. an RNG) and still produce the same
/// failure schedule at any executor thread count.
class StageFailureInjector {
 public:
  virtual ~StageFailureInjector() = default;
  /// \brief Called before attempt `attempt` (0-based) of `stage` on
  /// `partition` (-1 = coordinator). Returning true kills the attempt and
  /// the node's non-materialized state.
  virtual bool InjectFailure(int stage, int partition, int attempt) = 0;
};

/// \brief Fails a fixed set of (stage, partition) first attempts.
class ScriptedInjector final : public StageFailureInjector {
 public:
  /// \brief Each listed task fails `times` times before succeeding.
  explicit ScriptedInjector(std::vector<std::pair<int, int>> victims,
                            int times = 1)
      : victims_(std::move(victims)), times_(times) {}

  bool InjectFailure(int stage, int partition, int attempt) override {
    if (attempt >= times_) return false;
    for (const auto& [s, p] : victims_) {
      if (s == stage && p == partition) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<int, int>> victims_;
  int times_;
};

/// \brief Fails each attempt independently with probability `p` (seeded).
class RandomInjector final : public StageFailureInjector {
 public:
  RandomInjector(double probability, uint64_t seed)
      : probability_(probability), rng_(seed) {}

  bool InjectFailure(int, int, int) override {
    return rng_.NextDouble() < probability_;
  }

 private:
  double probability_;
  Rng rng_;
};

/// \brief Outcome of a fault-tolerant execution.
struct FtExecutionResult {
  /// Output of the plan's last stage (partitions concatenated in stable
  /// partition order — bit-identical at any thread count).
  exec::Table result;
  /// Failures injected (task attempts killed at dispatch).
  int failures_injected = 0;
  /// Task attempts beyond the failure-free minimum: killed attempts plus
  /// recomputations of lost outputs (the recovery work).
  int recovery_executions = 0;
  /// Total task attempts. Killed attempts are included (each consumed a
  /// dispatch) but, per the accounting contract above, they add no stage
  /// seconds — the failure struck before the operator ran.
  int task_executions = 0;
  /// Wall-clock seconds of the whole execution.
  double wall_seconds = 0.0;
  /// Rows/bytes written to fault-tolerant storage (outputs of materialized
  /// and global stages, recomputations included). Bytes are the in-memory
  /// cell estimate, not a serialized size.
  size_t rows_materialized = 0;
  uint64_t bytes_materialized = 0;
  /// Rows/bytes produced by recovery re-executions (attempts after the
  /// first of a task — work that a failure-free run would not have done).
  size_t rows_recomputed = 0;
  uint64_t bytes_recomputed = 0;
  /// Completed work destroyed by failures (the paper's §3.5 wasted work):
  /// rows/bytes of non-materialized outputs a dying node held, and the
  /// task seconds originally spent producing them. Deterministic for a
  /// fixed injector schedule; disjoint from the killed attempts, which
  /// never produced anything.
  size_t rows_lost = 0;
  uint64_t bytes_lost = 0;
  double seconds_lost = 0.0;
  /// Write-ahead lineage accounting (all zero unless set_wal(true)).
  /// Rows/bytes appended to the durable lineage log — the up-front write
  /// cost every completed non-materialized output pays, failures or not.
  size_t rows_logged = 0;
  uint64_t bytes_logged = 0;
  /// Outputs restored from the log after a node failure instead of being
  /// recomputed (one replay per restored (stage, partition) output).
  int replay_executions = 0;
  size_t rows_replayed = 0;
  uint64_t bytes_replayed = 0;
  /// Wall-clock seconds spent in each stage's successful task attempts
  /// (indexed by stage). Killed attempts contribute nothing here; work
  /// later destroyed by a failure stays charged (it really ran) and is
  /// additionally reported in seconds_lost.
  std::vector<double> stage_seconds;
  /// Rows of each stage's output: the sum over its tasks of the rows the
  /// last successful attempt produced (indexed by stage; 0 for stages the
  /// final stage never consumes). With stage_row_width_bytes, the input
  /// of tm(o) in cost calibration.
  std::vector<size_t> stage_output_rows;
  /// Estimated bytes per output row of each stage, taken from its first
  /// task's output (indexed by stage; 0 if that task never ran).
  std::vector<double> stage_row_width_bytes;
  /// One merged EXPLAIN ANALYZE tree per profiled stage, in stage order and
  /// labeled with the stage label. Empty unless the plan's stages profile
  /// (ExecOptions::profile); recovery attempts are merged in too.
  std::vector<obs::QueryProfile> stage_profiles;
  /// Per-attempt ledger: one record per dispatched task attempt (killed
  /// attempts included), in deterministic (wave, stage, partition) order,
  /// timestamps relative to Execute start. A completed attempt carries its
  /// real start and finish as observed on the executing thread, so
  /// finish - dispatch is that attempt's own duration; a killed attempt
  /// dies at dispatch (dispatch == finish). Records for completed outputs
  /// later destroyed by a failure carry the rows lost in `rows_lost`.
  /// obs::AddToTrace draws it as a Chrome trace timeline.
  obs::AttemptTimeline timeline;
};

/// \brief Copies `r`'s counts into a RunReport metrics map under
/// "executor.*" (e.g. "executor.task_attempts" = task_executions).
void AddRunMetrics(const FtExecutionResult& r,
                   std::map<std::string, double>* metrics);

/// \brief Executes stage plans with failures and recovery, partition tasks
/// running concurrently on a work-stealing TaskPool.
class FaultTolerantExecutor {
 public:
  FaultTolerantExecutor(const StagePlan* plan,
                        const PartitionedDatabase* db)
      : plan_(plan), db_(db) {}

  /// \brief Worker threads for partition tasks (0 = one per hardware
  /// thread, 1 = everything on the calling thread). The query result and
  /// all deterministic counters are identical at any value.
  void set_num_threads(int num_threads) { num_threads_ = num_threads; }

  /// \brief `num_threads` resolved as for set_num_threads (0 -> hardware
  /// concurrency, never less than 1).
  static int ResolveThreads(int num_threads);

  /// \brief Enable write-ahead lineage: completed non-materialized
  /// outputs are logged durably and replayed (not recomputed) after a
  /// node failure. The final table is bit-identical to a run without WAL
  /// at any thread count; only the recovery path and its accounting
  /// change.
  void set_wal(bool wal) { wal_ = wal; }

  /// \brief Directory for abort post-mortems. When a task exceeds
  /// max_attempts, Execute writes a bundle (this run's attempt timeline
  /// and AddRunMetrics counts up to the abort) there and appends the
  /// bundle path to the Aborted status message. Empty (the default)
  /// disables the dump.
  void set_postmortem_dir(std::string dir) {
    postmortem_dir_ = std::move(dir);
  }

  /// \brief Execute under `config` (indexed by stage, as produced from
  /// StagePlan::ToPlanSkeleton()). `injector` may be null (no failures):
  /// Execute(AllMat, nullptr) is the failure-free run that measures a
  /// query. A task is aborted after `max_attempts` injected failures.
  /// Returns InvalidArgument for a shuffle edge whose key column is out of
  /// range for the producer's output.
  Result<FtExecutionResult> Execute(const ft::MaterializationConfig& config,
                                    StageFailureInjector* injector = nullptr,
                                    int max_attempts = 100) const;

 private:
  const StagePlan* plan_;
  const PartitionedDatabase* db_;
  int num_threads_ = 1;
  bool wal_ = false;
  std::string postmortem_dir_;
};

}  // namespace xdbft::engine
