#include "common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xdbft {
namespace {

TEST(TaskPoolTest, ParallelForEachRunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelForEach(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPoolTest, ZeroWorkersRunsInlineOnCaller) {
  TaskPool pool(0);
  std::atomic<int> count{0};
  pool.ParallelForEach(50, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.stats().tasks_inline, 50u);
  EXPECT_EQ(pool.stats().tasks_executed, 0u);
}

TEST(TaskPoolTest, ExceptionPropagatesAndRemainingTasksStillRun) {
  TaskPool pool(2);
  std::atomic<int> count{0};
  EXPECT_THROW(
      pool.ParallelForEach(100,
                           [&](size_t i) {
                             ++count;
                             if (i == 42) {
                               throw std::runtime_error("task 42 failed");
                             }
                           }),
      std::runtime_error);
  // The join is a barrier: every task ran even though one threw.
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPoolTest, NoTaskLostOnShutdown) {
  std::atomic<int> count{0};
  constexpr int kN = 500;
  {
    TaskPool pool(3);
    for (int i = 0; i < kN; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must drain all queued tasks before joining.
  }
  EXPECT_EQ(count.load(), kN);
}

TEST(TaskPoolTest, WorkIsStolenFromABlockedWorkersQueue) {
  std::atomic<int> remaining{64};
  std::atomic<bool> blocking{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  TaskPool pool(4);  // destroyed first: its tasks use the locals above
  // Task 0 parks one worker until every other task has run. Its 63
  // siblings are submitted only once it blocks, and the round-robin puts
  // every 4th of them in the parked worker's queue, so the idle workers
  // must steal those for the test to finish. No helping happens here
  // because the main thread only waits.
  pool.Submit([&] {
    blocking.store(true, std::memory_order_release);
    while (remaining.load(std::memory_order_acquire) > 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  });
  while (!blocking.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 1; i < 64; ++i) {
    pool.Submit([&remaining] {
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  while (remaining.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(remaining.load(), 0);
  EXPECT_GT(pool.stats().tasks_stolen, 0u);
  EXPECT_EQ(pool.stats().tasks_executed, 64u);
}

TEST(TaskPoolTest, FullQueuesFallBackToInlineExecutionNotLoss) {
  TaskPool pool(1, /*queue_capacity=*/2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  pool.Submit([&] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Until the worker has dequeued the blocking task, that task holds one
  // of the two queue slots.
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Worker is parked; the 2-slot queue fills and the rest run inline.
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_GE(pool.stats().tasks_inline, 8u);
  release.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskPoolTest, CurrentWorkerIdIsScopedToThePool) {
  std::atomic<int> bad_ids{0};
  {
    TaskPool pool(3);
    EXPECT_EQ(pool.CurrentWorkerId(), -1);  // not a worker of this pool
    for (int i = 0; i < 30; ++i) {
      // Submitted (not helped) tasks run on workers only, so the id must
      // be a valid worker index.
      pool.Submit([&pool, &bad_ids] {
        const int id = pool.CurrentWorkerId();
        if (id < 0 || id >= pool.num_threads()) ++bad_ids;
      });
    }
  }  // destructor drains all 30 tasks
  EXPECT_EQ(bad_ids.load(), 0);
}

TEST(TaskPoolTest, StatsAccountEveryExecutedTask) {
  TaskPool pool(2);
  pool.ParallelForEach(200, [](size_t) {});
  const TaskPoolStats s = pool.stats();
  EXPECT_EQ(s.tasks_executed + s.tasks_inline, 200u);
  EXPECT_LE(s.tasks_stolen, s.tasks_executed);
}

}  // namespace
}  // namespace xdbft
