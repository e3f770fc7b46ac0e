#include "engine/ft_executor.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/task_pool.h"
#include "obs/run_report.h"

namespace xdbft::engine {

using exec::Table;

namespace {

// Size estimate of a table: sizeof(exec::Value) per cell, whatever the
// columnar encoding actually holds, so bytes_materialized/bytes_logged and
// the tm calibrated from them stay comparable across layouts (an encoded
// byte count is a separate accounting change). String payloads are not
// walked: this feeds relative materialized-vs-recomputed accounting, not
// an allocator budget.
uint64_t ApproxTableBytes(const Table& t) {
  return static_cast<uint64_t>(t.num_rows()) *
         static_cast<uint64_t>(t.schema.num_columns()) * sizeof(exec::Value);
}

// Rough bytes/row of a table from its first row (for materialization
// costing): 8 per numeric or NULL cell, 16 plus the payload per string.
double EstimateRowWidth(const Table& t) {
  if (t.num_rows() == 0) {
    return 16.0 * static_cast<double>(t.schema.num_columns());
  }
  double bytes = 0.0;
  for (const exec::Vector& v : t.chunks()[0]->columns) {
    bytes += v.type == exec::ValueType::kString && !v.IsNull(0)
                 ? 16.0 + static_cast<double>(v.StringAt(0).size())
                 : 8.0;
  }
  return bytes;
}

// Completed output of one (stage, slot) task, with the accounting the
// coordinator needs when a failure later destroys it.
struct SlotState {
  std::optional<Table> output;
  // Durable lineage-log copy of `output` (write-ahead lineage only).
  // Survives node failures; a failure restores `output` from here
  // instead of recomputing it.
  std::optional<Table> logged;
  double seconds = 0.0;  // wall time of the attempt that produced `output`
  size_t rows = 0;
  uint64_t bytes = 0;
  int attempts = 0;
};

// The producers' outputs in slot order; chunks are shared, not copied.
Table Concatenate(const std::vector<SlotState>& parts) {
  Table out;
  for (const auto& p : parts) {
    if (!p.output.has_value()) continue;
    if (out.schema.num_columns() == 0) out.schema = p.output->schema;
    out.Append(*p.output);
  }
  return out;
}

// Rows (from every producer partition) whose shuffle-key column hashes to
// the consumer partition. A key outside the producer's output schema is
// rejected before any row is indexed.
Result<Table> ShuffleSlice(const std::vector<SlotState>& parts, int key,
                           int partition, int n) {
  Table out;
  for (const auto& part : parts) {
    if (!part.output.has_value()) continue;
    if (static_cast<size_t>(key) >= part.output->schema.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("shuffle key column %d out of range for a producer "
                    "output of %zu columns",
                    key, part.output->schema.num_columns()));
    }
    if (out.schema.num_columns() == 0) out.schema = part.output->schema;
    XDBFT_ASSIGN_OR_RETURN(
        const Table slice,
        exec::HashSlice(*part.output, key, static_cast<size_t>(partition),
                        static_cast<size_t>(n)));
    out.Append(slice);
  }
  return out;
}

// One task attempt of the current wave. Built by the coordinator in
// ascending (stage, slot) order; filled in by the executing thread.
struct WaveTask {
  int stage = 0;
  int slot = 0;
  int attempt = 0;
  bool killed = false;
  Status status;
  std::optional<Table> table;
  // Real start/finish on the executing thread, relative to Execute start.
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  // Filled by the stage's runnable only when it profiles its plan.
  obs::QueryProfile profile;
  // Index of this attempt's record in FtExecutionResult::timeline.
  int record_idx = -1;
};

}  // namespace

int FaultTolerantExecutor::ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

Result<FtExecutionResult> FaultTolerantExecutor::Execute(
    const ft::MaterializationConfig& config, StageFailureInjector* injector,
    int max_attempts) const {
  if (plan_ == nullptr || db_ == nullptr) {
    return Status::InvalidArgument("null plan or database");
  }
  XDBFT_RETURN_NOT_OK(plan_->Validate());
  XDBFT_RETURN_NOT_OK(config.Validate(plan_->ToPlanSkeleton()));
  const int n = db_->num_nodes;
  const int num_stages = plan_->num_stages();

  const int threads = ResolveThreads(num_threads_);
  // One worker is pointless (the coordinator would idle); run inline.
  TaskPool pool(threads <= 1 ? 0 : threads);

  // state[s] has one slot per partition (one slot for global stages).
  std::vector<std::vector<SlotState>> state(static_cast<size_t>(num_stages));
  auto slots_of = [&](int s) {
    return plan_->stage(s).global ? size_t{1} : static_cast<size_t>(n);
  };
  for (int s = 0; s < num_stages; ++s) {
    state[static_cast<size_t>(s)].resize(slots_of(s));
  }

  FtExecutionResult result;
  result.stage_seconds.assign(static_cast<size_t>(num_stages), 0.0);
  result.stage_row_width_bytes.assign(static_cast<size_t>(num_stages), 0.0);
  // Per stage: the merged profile first, then any shape-mismatched odd one
  // out kept as its own entry rather than dropped.
  std::vector<std::vector<obs::QueryProfile>> profiles(
      static_cast<size_t>(num_stages));
  const auto start = std::chrono::steady_clock::now();
  const int last = num_stages - 1;
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // last_record[s][slot]: timeline index of the attempt that produced the
  // currently held output of (s, slot), for rows_lost backfill when a
  // failure later invalidates it. -1 = none.
  std::vector<std::vector<int>> last_record(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    last_record[static_cast<size_t>(s)].assign(slots_of(s), -1);
  }

  // Demand closure from the final stage: a task is required iff it is not
  // `present` and it is a final-stage task or feeds a required task.
  // Returns the required marks per (stage, slot) and their count.
  auto demand_closure = [&](auto present) {
    std::vector<std::vector<char>> required(static_cast<size_t>(num_stages));
    for (int s = 0; s < num_stages; ++s) {
      required[static_cast<size_t>(s)].assign(slots_of(s), 0);
    }
    std::vector<std::pair<int, int>> work;
    auto demand = [&](int s, int slot) {
      if (present(s, slot)) return;
      char& mark =
          required[static_cast<size_t>(s)][static_cast<size_t>(slot)];
      if (mark) return;
      mark = 1;
      work.emplace_back(s, slot);
    };
    for (size_t slot = 0; slot < slots_of(last); ++slot) {
      demand(last, static_cast<int>(slot));
    }
    for (size_t scan = 0; scan < work.size(); ++scan) {
      const auto [s, slot] = work[scan];
      for (const auto& [ps, pslot] : plan_->TaskInputs(s, slot, n)) {
        demand(ps, pslot);
      }
    }
    return std::make_pair(std::move(required), work.size());
  };

  // Failure-free minimum: the demand closure over an empty state — a task
  // counts iff it is a final-stage task or transitively feeds one. Stages
  // the final stage never consumes are not executed (step 1), so counting
  // them here would deflate (even negate) the recovery tally.
  const int minimal = static_cast<int>(
      demand_closure([](int, int) { return false; }).second);

  // Runs one attempt: resolves inputs per edge mode from the current
  // state (read-only during a wave) and executes the stage. The attempt's
  // time includes its input assembly (concatenation, shuffle slicing), as
  // tr(o) does. Accounting is applied later by the coordinator, in
  // deterministic order, at the wave barrier.
  auto run_attempt = [&](WaveTask& t) {
    const auto task_start = std::chrono::steady_clock::now();
    const Stage& stage = plan_->stage(t.stage);
    std::vector<Table> edge_storage;
    std::vector<const Table*> input_ptrs;
    edge_storage.reserve(stage.inputs.size());
    for (const StageInput& in : stage.inputs) {
      const auto& producer_state = state[static_cast<size_t>(in.stage)];
      const Stage& producer = plan_->stage(in.stage);
      if (producer.global) {
        input_ptrs.push_back(&*producer_state[0].output);
      } else if (stage.global || in.mode == EdgeMode::kBroadcast) {
        edge_storage.push_back(Concatenate(producer_state));
        input_ptrs.push_back(&edge_storage.back());
      } else if (in.mode == EdgeMode::kShuffle) {
        Result<Table> slice =
            ShuffleSlice(producer_state, in.shuffle_key, t.slot, n);
        if (!slice.ok()) {
          t.status = slice.status();
          return;
        }
        edge_storage.push_back(std::move(*slice));
        input_ptrs.push_back(&edge_storage.back());
      } else {
        input_ptrs.push_back(
            &*producer_state[static_cast<size_t>(t.slot)].output);
      }
    }

    Result<Table> out =
        stage.run(stage.global ? -1 : t.slot, input_ptrs, &t.profile);
    const auto task_end = std::chrono::steady_clock::now();
    t.start_seconds =
        std::chrono::duration<double>(task_start - start).count();
    t.finish_seconds = std::chrono::duration<double>(task_end - start).count();
    if (!out.ok()) {
      t.status = out.status();
      return;
    }
    t.table = std::move(*out);
  };

  // Wave loop. Each iteration: (1) demand closure of missing outputs from
  // the final stage, (2) the ready frontier (missing output, all inputs
  // present) in ascending (stage, slot) order, (3) coordinator-side
  // injection decisions, (4) parallel execution of surviving partition
  // tasks + coordinator execution of global tasks, (5) deterministic
  // completion accounting, then (6) failure invalidation at the barrier.
  // Iterative by construction: recovery depth never touches the C++
  // stack, however adversarial the injector.
  while (true) {
    // (1) Demand closure of the missing outputs.
    const auto [required, num_required] =
        demand_closure([&](int s, int slot) {
          return state[static_cast<size_t>(s)][static_cast<size_t>(slot)]
              .output.has_value();
        });
    if (num_required == 0) break;  // every final output present

    // (2) Ready frontier in ascending (stage, slot) order.
    std::vector<WaveTask> wave;
    for (int s = 0; s < num_stages; ++s) {
      for (size_t slot = 0; slot < slots_of(s); ++slot) {
        if (!required[static_cast<size_t>(s)][slot]) continue;
        bool runnable = true;
        for (const auto& [ps, pslot] :
             plan_->TaskInputs(s, static_cast<int>(slot), n)) {
          if (!state[static_cast<size_t>(ps)][static_cast<size_t>(pslot)]
                   .output.has_value()) {
            runnable = false;
            break;
          }
        }
        if (!runnable) continue;
        WaveTask t;
        t.stage = s;
        t.slot = static_cast<int>(slot);
        wave.push_back(t);
      }
    }
    // A DAG always has a minimal missing element with all inputs present.
    if (wave.empty()) {
      return Status::Internal("executor wave deadlock: no runnable task");
    }

    // (3) Attempt charging + injection, coordinator-side, in order.
    for (WaveTask& t : wave) {
      SlotState& slot_state =
          state[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)];
      if (slot_state.attempts >= max_attempts) {
        const std::string reason =
            StrFormat("stage %d partition %d exceeded %d attempts", t.stage,
                      t.slot, max_attempts);
        std::string suffix;
        if (!postmortem_dir_.empty()) {
          obs::RunReport pm;
          pm.tool = "ft_executor";
          pm.reason = reason;
          pm.params["plan"] = plan_->name();
          pm.params["stage"] = StrFormat("%d", t.stage);
          pm.params["partition"] = StrFormat("%d", t.slot);
          pm.params["max_attempts"] = StrFormat("%d", max_attempts);
          // The bundle's numbers are this run's, up to the abort.
          result.recovery_executions = result.task_executions - minimal;
          result.wall_seconds = elapsed();
          AddRunMetrics(result, &pm.metrics);
          pm.timeline = result.timeline;
          Result<std::string> path =
              obs::WritePostMortem(postmortem_dir_, pm);
          if (path.ok()) suffix = " (post-mortem: " + *path + ")";
        }
        return Status::Aborted(reason + suffix);
      }
      t.attempt = slot_state.attempts++;
      const Stage& stage = plan_->stage(t.stage);
      const int injector_partition = stage.global ? -1 : t.slot;
      // A killed attempt is charged as a dispatch but does no work: the
      // failure strikes before the operator starts (see the accounting
      // contract in ft_executor.h). The work failures waste is what
      // invalidation destroys, charged to *_lost in step (6).
      ++result.task_executions;
      if (injector != nullptr &&
          injector->InjectFailure(t.stage, injector_partition, t.attempt)) {
        t.killed = true;
        ++result.failures_injected;
      }
      obs::AttemptRecord rec;
      rec.label = stage.label;
      rec.stage = t.stage;
      rec.node = injector_partition;
      rec.attempt = t.attempt;
      rec.dispatch_seconds = elapsed();
      rec.killed = t.killed;
      // A killed attempt dies at dispatch; successes get their real start
      // and finish times in step (5).
      rec.finish_seconds = rec.dispatch_seconds;
      t.record_idx = static_cast<int>(result.timeline.records.size());
      result.timeline.records.push_back(std::move(rec));
    }

    // (4) Execute survivors: partition tasks fan out onto the pool (the
    // coordinator helps drain while it waits); global tasks then run on
    // the coordinator lane.
    std::vector<size_t> parallel_idx;
    std::vector<size_t> global_idx;
    for (size_t i = 0; i < wave.size(); ++i) {
      if (wave[i].killed) continue;
      (plan_->stage(wave[i].stage).global ? global_idx : parallel_idx)
          .push_back(i);
    }
    pool.ParallelForEach(parallel_idx.size(), [&](size_t k) {
      run_attempt(wave[parallel_idx[k]]);
    });
    for (size_t i : global_idx) run_attempt(wave[i]);

    // (5) Completion accounting in ascending (stage, slot) order, so
    // float accumulation and counters are reproducible.
    for (WaveTask& t : wave) {
      if (t.killed) continue;
      XDBFT_RETURN_NOT_OK(t.status);
      const Stage& stage = plan_->stage(t.stage);
      const double seconds = t.finish_seconds - t.start_seconds;
      result.stage_seconds[static_cast<size_t>(t.stage)] += seconds;
      const size_t rows = t.table->num_rows();
      const uint64_t bytes = ApproxTableBytes(*t.table);
      // An attempt beyond a task's first is recovery work a failure-free
      // run would not have done.
      if (stage.global ||
          config.materialized(static_cast<plan::OpId>(t.stage))) {
        result.rows_materialized += rows;
        result.bytes_materialized += bytes;
      }
      if (t.attempt > 0) {
        result.rows_recomputed += rows;
        result.bytes_recomputed += bytes;
      }
      SlotState& slot_state =
          state[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)];
      slot_state.output = std::move(t.table);
      slot_state.seconds = seconds;
      slot_state.rows = rows;
      slot_state.bytes = bytes;
      // Write-ahead lineage: append the completed output to the durable
      // log before failures can strike it. The write cost is charged
      // unconditionally — that is the scheme's up-front overhead. The
      // in-memory log shares the output's immutable chunks.
      if (wal_ && !stage.global &&
          !config.materialized(static_cast<plan::OpId>(t.stage))) {
        slot_state.logged = *slot_state.output;
        result.rows_logged += rows;
        result.bytes_logged += bytes;
      }
      if (t.slot == 0) {
        result.stage_row_width_bytes[static_cast<size_t>(t.stage)] =
            EstimateRowWidth(*slot_state.output);
      }
      obs::AttemptRecord& rec =
          result.timeline.records[static_cast<size_t>(t.record_idx)];
      rec.dispatch_seconds = t.start_seconds;
      rec.finish_seconds = t.finish_seconds;
      rec.rows_out = rows;
      last_record[static_cast<size_t>(t.stage)][static_cast<size_t>(t.slot)] =
          t.record_idx;
      if (!t.profile.engine.empty()) {
        std::vector<obs::QueryProfile>& merged =
            profiles[static_cast<size_t>(t.stage)];
        if (merged.empty() || !merged.front().MergeFrom(t.profile).ok()) {
          t.profile.label = stage.label;
          merged.push_back(std::move(t.profile));
        }
      }
    }

    // (6) Failures take effect at the wave barrier: node `slot` died, so
    // every non-materialized output it holds — including any produced in
    // this wave — is lost; materialized outputs live on fault-tolerant
    // storage and survive (§2.2). Global (coordinator) failures lose
    // nothing. Processed in (stage, slot) order for determinism; the
    // demand closure of the next wave re-schedules whatever is still
    // needed.
    for (const WaveTask& t : wave) {
      if (!t.killed || plan_->stage(t.stage).global) continue;
      for (int s2 = 0; s2 < num_stages; ++s2) {
        if (plan_->stage(s2).global) continue;
        if (config.materialized(static_cast<plan::OpId>(s2))) continue;
        SlotState& lost =
            state[static_cast<size_t>(s2)][static_cast<size_t>(t.slot)];
        if (!lost.output.has_value()) continue;
        if (wal_ && lost.logged.has_value()) {
          // The node's memory died, but the lineage log is on durable
          // storage (§2.2 applied to the log): replay it into the
          // replacement node instead of recomputing from ancestors.
          lost.output = *lost.logged;
          ++result.replay_executions;
          result.rows_replayed += lost.rows;
          result.bytes_replayed += lost.bytes;
          continue;
        }
        result.rows_lost += lost.rows;
        result.bytes_lost += lost.bytes;
        result.seconds_lost += lost.seconds;
        const int rec_idx =
            last_record[static_cast<size_t>(s2)][static_cast<size_t>(t.slot)];
        if (rec_idx >= 0) {
          result.timeline.records[static_cast<size_t>(rec_idx)].rows_lost +=
              lost.rows;
        }
        lost.output.reset();
      }
    }
  }

  if (plan_->stage(last).global) {
    result.result = *state[static_cast<size_t>(last)][0].output;
  } else {
    result.result = Concatenate(state[static_cast<size_t>(last)]);
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.stage_output_rows.assign(static_cast<size_t>(num_stages), 0);
  for (int s = 0; s < num_stages; ++s) {
    for (const SlotState& slot : state[static_cast<size_t>(s)]) {
      result.stage_output_rows[static_cast<size_t>(s)] += slot.rows;
    }
    for (obs::QueryProfile& p : profiles[static_cast<size_t>(s)]) {
      result.stage_profiles.push_back(std::move(p));
    }
  }
  result.recovery_executions = result.task_executions - minimal;
  return result;
}

void AddRunMetrics(const FtExecutionResult& r,
                   std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  m["executor.task_attempts"] = r.task_executions;
  m["executor.failures_injected"] = r.failures_injected;
  m["executor.recoveries"] = r.recovery_executions;
  m["executor.wall_seconds"] = r.wall_seconds;
  m["executor.rows_materialized"] = static_cast<double>(r.rows_materialized);
  m["executor.bytes_materialized"] = static_cast<double>(r.bytes_materialized);
  m["executor.rows_recomputed"] = static_cast<double>(r.rows_recomputed);
  m["executor.bytes_recomputed"] = static_cast<double>(r.bytes_recomputed);
  m["executor.rows_lost"] = static_cast<double>(r.rows_lost);
  m["executor.bytes_lost"] = static_cast<double>(r.bytes_lost);
  m["executor.seconds_lost"] = r.seconds_lost;
  m["executor.rows_logged"] = static_cast<double>(r.rows_logged);
  m["executor.bytes_logged"] = static_cast<double>(r.bytes_logged);
  m["executor.replays"] = r.replay_executions;
  m["executor.rows_replayed"] = static_cast<double>(r.rows_replayed);
  m["executor.bytes_replayed"] = static_cast<double>(r.bytes_replayed);
}

}  // namespace xdbft::engine
