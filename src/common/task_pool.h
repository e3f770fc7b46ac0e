// TaskPool: a small work-stealing thread pool for CPU-bound fan-out work
// (the parallel FT-plan enumerator is the primary client). Each worker owns
// a bounded deque; it pops its own queue LIFO (cache-warm) and steals FIFO
// from a victim when empty. Submitting to a full pool never blocks and
// never drops work: the task runs inline on the submitting thread instead
// (caller-runs backpressure). The destructor drains every queued task
// before joining, so no accepted task is ever lost.
//
// ParallelForEach is the structured-join helper: it fans fn(0..n-1) out as
// tasks, lets the calling thread help execute queued work while it waits,
// and rethrows the first exception any task threw once all n completed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xdbft {

/// \brief Monotonic execution counters (snapshot via TaskPool::stats()).
struct TaskPoolStats {
  /// Tasks executed on a worker thread (own-queue pops + steals).
  uint64_t tasks_executed = 0;
  /// Subset of tasks_executed taken from another worker's queue.
  uint64_t tasks_stolen = 0;
  /// Tasks run on the submitting/waiting thread (backpressure or helping).
  uint64_t tasks_inline = 0;
};

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// \brief Spawns `num_threads` workers (0 = run every task inline on the
  /// submitting thread, useful as a sequential fallback). `queue_capacity`
  /// bounds each worker's deque.
  explicit TaskPool(int num_threads, size_t queue_capacity = 1024);

  /// \brief Drains all queued tasks, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Worker index of the calling thread in [0, num_threads), or -1
  /// for threads this pool does not own (e.g. the submitting thread).
  int CurrentWorkerId() const;

  /// \brief Enqueue `task`; runs it inline when every queue is full or the
  /// pool has no workers. Must not be called after the destructor started.
  void Submit(Task task);

  /// \brief Run fn(i) for every i in [0, n), blocking until all complete.
  /// The calling thread executes queued tasks while waiting. If any task
  /// throws, the first captured exception is rethrown after the join (the
  /// remaining tasks still run). Not reentrant from inside a task.
  void ParallelForEach(size_t n, const std::function<void(size_t)>& fn);

  TaskPoolStats stats() const;

 private:
  struct WorkerQueue {
    mutable std::mutex mu;
    std::deque<Task> tasks;
  };

  void WorkerLoop(int worker_id);
  /// \brief Enqueue on the first non-full queue starting from the caller's
  /// preferred one; false (task left untouched) when all are full.
  bool EnqueueTask(Task& task);
  /// \brief Pop a task for `worker_id` (own queue LIFO, then steal FIFO).
  /// `worker_id` < 0 scans all queues FIFO (external helper thread).
  bool PopTask(int worker_id, Task* task, bool* stolen);
  /// \brief Run one queued task on the calling (non-worker) thread.
  bool RunOneTaskInline();

  const size_t queue_capacity_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Sleep/wake coordination: pending_ counts queued-but-not-yet-popped
  // tasks; workers sleep on cv_ when it is zero.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<uint64_t> pending_{0};
  bool stopping_ = false;

  std::atomic<uint64_t> next_queue_{0};  // round-robin submission cursor
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> tasks_inline_{0};
};

}  // namespace xdbft
