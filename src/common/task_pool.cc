#include "common/task_pool.h"

#include <chrono>
#include <exception>
#include <utility>

namespace xdbft {

namespace {

// Which pool (if any) owns the current thread, and its worker index there.
struct WorkerTls {
  const TaskPool* pool = nullptr;
  int id = -1;
};
thread_local WorkerTls g_worker_tls;

}  // namespace

TaskPool::TaskPool(int num_threads, size_t queue_capacity)
    : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  if (num_threads < 0) num_threads = 0;
  queues_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers only exit once pending_ hits zero, so every accepted task ran.
}

int TaskPool::CurrentWorkerId() const {
  return g_worker_tls.pool == this ? g_worker_tls.id : -1;
}

bool TaskPool::EnqueueTask(Task& task) {
  // Prefer the submitting worker's own queue (LIFO locality); external
  // threads round-robin. On a full target, probe the others once —
  // bounded memory, never blocks.
  const size_t n = queues_.size();
  if (n == 0) return false;
  const int self = CurrentWorkerId();
  const size_t start =
      self >= 0 ? static_cast<size_t>(self)
                : next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  for (size_t probe = 0; probe < n; ++probe) {
    WorkerQueue& q = *queues_[(start + probe) % n];
    {
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.tasks.size() >= queue_capacity_) continue;
      q.tasks.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
    }
    cv_.notify_one();
    return true;
  }
  return false;
}

void TaskPool::Submit(Task task) {
  if (EnqueueTask(task)) return;
  // No workers or every queue full: caller-runs backpressure.
  tasks_inline_.fetch_add(1, std::memory_order_relaxed);
  task();
}

bool TaskPool::PopTask(int worker_id, Task* task, bool* stolen) {
  const size_t n = queues_.size();
  if (n == 0) return false;
  *stolen = false;
  if (worker_id >= 0) {
    WorkerQueue& own = *queues_[static_cast<size_t>(worker_id)];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  const size_t start =
      worker_id >= 0 ? static_cast<size_t>(worker_id) + 1 : 0;
  for (size_t probe = 0; probe < n; ++probe) {
    WorkerQueue& victim = *queues_[(start + probe) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.tasks.empty()) continue;
    *task = std::move(victim.tasks.front());
    victim.tasks.pop_front();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    *stolen = worker_id >= 0;
    return true;
  }
  return false;
}

bool TaskPool::RunOneTaskInline() {
  Task task;
  bool stolen = false;
  if (!PopTask(/*worker_id=*/-1, &task, &stolen)) return false;
  tasks_inline_.fetch_add(1, std::memory_order_relaxed);
  task();
  return true;
}

void TaskPool::WorkerLoop(int worker_id) {
  g_worker_tls = WorkerTls{this, worker_id};
  for (;;) {
    Task task;
    bool stolen = false;
    if (PopTask(worker_id, &task, &stolen)) {
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stopping_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_ && pending_.load(std::memory_order_acquire) == 0) break;
  }
  g_worker_tls = WorkerTls{};
}

void TaskPool::ParallelForEach(size_t n,
                               const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  struct Group {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
    std::exception_ptr first_exception;
  };
  auto group = std::make_shared<Group>();
  group->remaining = n;
  for (size_t i = 0; i < n; ++i) {
    Submit([group, &fn, i] {
      std::exception_ptr eptr;
      try {
        fn(i);
      } catch (...) {
        eptr = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(group->mu);
      if (eptr && !group->first_exception) group->first_exception = eptr;
      if (--group->remaining == 0) group->cv.notify_all();
    });
  }
  // Help drain the queues while waiting: with more chunks than workers the
  // caller is one more execution lane, and with zero workers this is the
  // (already satisfied) sequential path.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(group->mu);
      if (group->remaining == 0) break;
    }
    if (RunOneTaskInline()) continue;
    std::unique_lock<std::mutex> lock(group->mu);
    group->cv.wait_for(lock, std::chrono::milliseconds(1),
                       [&] { return group->remaining == 0; });
    if (group->remaining == 0) break;
  }
  if (group->first_exception) std::rethrow_exception(group->first_exception);
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.tasks_inline = tasks_inline_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace xdbft
