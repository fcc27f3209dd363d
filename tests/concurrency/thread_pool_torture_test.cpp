// Torture tests for the task-group thread pool: throwing tasks, nested
// parallel_for, independent groups on a shared pool,
// submit-after-shutdown, and stream_each's early stop and exceptions.
// Run under TSan via the `tsan` preset (`ctest --preset tsan`, label
// `concurrency`).
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace faultyrank {
namespace {

TEST(TaskGroupTest, WaitReturnsWhenOwnGroupDone) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    group.submit([&counter] { counter.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(TaskGroupTest, WaitDoesNotObserveOtherGroupsWork) {
  // Group B occupies every worker until released; group A's wait() must
  // still complete — by stealing its own queued tasks — instead of
  // draining the whole pool like the old global wait_idle() did.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0};
  TaskGroup blockers(pool);
  for (int i = 0; i < 2; ++i) {
    blockers.submit([&] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (blocked.load() < 2) std::this_thread::yield();

  TaskGroup group(pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    group.submit([&counter] { counter.fetch_add(1); });
  }
  group.wait();  // steals: no worker is free
  EXPECT_EQ(counter.load(), 50);
  EXPECT_FALSE(release.load()) << "group A waited on group B's tasks";

  release.store(true);
  blockers.wait();
}

TEST(TaskGroupTest, ThrowingTaskIsRethrownAtWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> survivors{0};
  group.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) {
    group.submit([&survivors] { survivors.fetch_add(1); });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The failure neither cancelled siblings nor wedged the counters.
  EXPECT_EQ(survivors.load(), 20);
  // The exception slot is consumed: a second wait is clean.
  group.wait();

  // And the pool is still fully usable.
  TaskGroup again(pool);
  std::atomic<int> counter{0};
  again.submit([&counter] { counter.fetch_add(1); });
  again.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t begin, std::size_t, std::size_t) {
                          if (begin == 0) throw std::runtime_error("chunk 0");
                        }),
      std::runtime_error);
  // Counters settled: a drain-all barrier returns immediately.
  pool.wait_idle();
}

TEST(ThreadPoolTest, WaitIdleRethrowsUngroupedException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("ungrouped"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Slot consumed, pool reusable.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<long> counter{0};
  pool.parallel_for(4, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t outer = begin; outer < end; ++outer) {
      pool.parallel_for(8,
                        [&](std::size_t b, std::size_t e, std::size_t) {
                          counter.fetch_add(static_cast<long>(e - b));
                        });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForSingleWorker) {
  // One worker, three levels of nesting: every level must make progress
  // through stealing alone.
  ThreadPool pool(1);
  std::atomic<long> counter{0};
  pool.parallel_for(2, [&](std::size_t, std::size_t, std::size_t) {
    pool.parallel_for(2, [&](std::size_t, std::size_t, std::size_t) {
      pool.parallel_for(2, [&](std::size_t b, std::size_t e, std::size_t) {
        counter.fetch_add(static_cast<long>(e - b));
      });
    });
  });
  EXPECT_EQ(counter.load(), 2);  // n=2 collapses to one chunk per level
}

TEST(ThreadPoolTest, TwoGroupsFromTwoThreads) {
  ThreadPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    TaskGroup group(pool);
    for (int i = 0; i < 500; ++i) {
      group.submit([&a] { a.fetch_add(1); });
    }
    group.wait();
    EXPECT_EQ(a.load(), 500);
  });
  std::thread tb([&] {
    TaskGroup group(pool);
    for (int i = 0; i < 500; ++i) {
      group.submit([&b] { b.fetch_add(1); });
    }
    group.wait();
    EXPECT_EQ(b.load(), 500);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load() + b.load(), 1000);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(256,
                          [&](std::size_t b, std::size_t e, std::size_t) {
                            total.fetch_add(static_cast<long>(e - b));
                          });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 4L * 20L * 256L);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  TaskGroup group(pool);
  EXPECT_THROW(group.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        counter.fetch_add(1);
      });
    }
    pool.shutdown();  // queued work runs to completion, never dropped
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGroupTest, DestructorDrainsWithoutWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) {
      group.submit([&counter] { counter.fetch_add(1); });
    }
    // No wait(): the destructor must drain (and swallow exceptions).
    group.submit([] { throw std::runtime_error("dropped"); });
  }
  EXPECT_EQ(counter.load(), 50);
  pool.wait_idle();
}

TEST(StreamEachTest, EveryStageSeesEveryItemOnAnyPool) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    SCOPED_TRACE(threads);
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    constexpr std::size_t kItems = 64;
    std::vector<int> worked(kItems, 0);
    std::vector<int> finished(kItems, 0);
    std::vector<std::size_t> ready_order;
    const bool completed = stream_each(
        pool ? &*pool : nullptr, kItems,
        [&](std::size_t i) { worked[i] = 1; },
        [&](std::size_t i) {
          EXPECT_EQ(worked[i], 1);
          ready_order.push_back(i);
          return true;
        },
        [&](std::size_t i) { finished[i] = worked[i] + 1; });
    EXPECT_TRUE(completed);
    EXPECT_EQ(finished, std::vector<int>(kItems, 2));
    std::sort(ready_order.begin(), ready_order.end());
    for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(ready_order[i], i);
  }
}

TEST(StreamEachTest, ReadyReturningFalseStopsWhileWorkIsInFlight) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    SCOPED_TRACE(threads);
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    std::atomic<std::size_t> worked{0};
    std::size_t readied = 0;
    const bool completed = stream_each(
        pool ? &*pool : nullptr, 200,
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          worked.fetch_add(1);
        },
        [&](std::size_t) { return ++readied < 3; });
    EXPECT_FALSE(completed);
    EXPECT_EQ(readied, 3u);
    // Items not yet at work when the stream stopped were skipped.
    EXPECT_LT(worked.load(), 200u);
  }
}

TEST(StreamEachTest, ThrowingStagesAreRethrownWithoutHanging) {
  for (const std::size_t threads : {0u, 1u, 4u}) {
    SCOPED_TRACE(threads);
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    ThreadPool* borrowed = pool ? &*pool : nullptr;
    const auto noop = [](std::size_t) {};
    EXPECT_THROW(stream_each(borrowed, 50,
                             [](std::size_t i) {
                               if (i == 7) throw std::runtime_error("work");
                             }),
                 std::runtime_error);
    EXPECT_THROW(stream_each(borrowed, 50, noop,
                             [](std::size_t i) -> bool {
                               if (i == 7) throw std::runtime_error("ready");
                               return true;
                             }),
                 std::runtime_error);
    EXPECT_THROW(stream_each(borrowed, 50, noop, {},
                             [](std::size_t i) {
                               if (i == 7) throw std::runtime_error("after");
                             }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace faultyrank
