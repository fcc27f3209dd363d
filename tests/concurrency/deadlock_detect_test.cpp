// Runtime lock-order cycle detector (common/deadlock.h) — the dynamic
// half of fr_analyze's lock-order pass.
//
// The registry tests drive on_lock/on_unlock directly, so they prove
// the detection algorithm in EVERY build configuration. The wrapper
// integration test needs the instrumented Mutex and only runs under
// -DFAULTYRANK_DEADLOCK_DETECT=ON (the `deadlock` preset); elsewhere
// it skips.
//
// The seeded inversion is deliberately sequential: one task acquires
// A then B and fully releases, then a second task acquires B then A.
// No execution ever blocks — yet the acquired-after edge set still
// contains A→B when B→A appears, which is exactly the class of latent
// deadlock a timing-based stress test cannot catch.
#include "common/deadlock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace faultyrank {
namespace {

/// Installs a capturing hook for the test's lifetime and restores the
/// previous hook (and a clean registry) on exit.
class HookCapture {
 public:
  HookCapture() {
    deadlock::reset();
    previous_ = deadlock::set_report_hook([this](
        const deadlock::CycleReport& report) {
      const std::lock_guard<std::mutex> guard(mu_);
      reports_.push_back(report);
    });
  }
  ~HookCapture() {
    deadlock::set_report_hook(std::move(previous_));
    deadlock::reset();
  }

  std::vector<deadlock::CycleReport> reports() {
    const std::lock_guard<std::mutex> guard(mu_);
    return reports_;
  }

 private:
  std::mutex mu_;  // fr_analyze: allow(mutex-needs-guards)
  std::vector<deadlock::CycleReport> reports_;
  std::function<void(const deadlock::CycleReport&)> previous_;
};

TEST(DeadlockDetectTest, AbbaInversionAcrossPoolThreadsReportsCycle) {
  HookCapture capture;
  int a = 0;
  int b = 0;  // any distinct addresses work as lock identities

  ThreadPool pool(2);
  {
    TaskGroup group(pool);
    group.submit([&] {
      deadlock::on_lock(&a, "A");
      deadlock::on_lock(&b, "B");
      deadlock::on_unlock(&b);
      deadlock::on_unlock(&a);
    });
    group.wait();
  }
  ASSERT_TRUE(capture.reports().empty()) << "consistent order reported";

  {
    TaskGroup group(pool);
    group.submit([&] {
      deadlock::on_lock(&b, "B");
      deadlock::on_lock(&a, "A");  // inversion: edge B->A vs existing A->B
      deadlock::on_unlock(&a);
      deadlock::on_unlock(&b);
    });
    group.wait();
  }

  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1u);
  const deadlock::CycleReport& report = reports.front();
  // The cycle must involve exactly our two locks, by address and name.
  EXPECT_NE(std::find(report.cycle.begin(), report.cycle.end(),
                      static_cast<const void*>(&a)),
            report.cycle.end());
  EXPECT_NE(std::find(report.cycle.begin(), report.cycle.end(),
                      static_cast<const void*>(&b)),
            report.cycle.end());
  EXPECT_NE(report.text.find("A"), std::string::npos);
  EXPECT_NE(report.text.find("B"), std::string::npos);
  EXPECT_NE(report.text.find("cycle"), std::string::npos);
}

TEST(DeadlockDetectTest, SingleLockHotPathAddsNoEdges) {
  HookCapture capture;
  int a = 0;
  for (int i = 0; i < 1000; ++i) {
    deadlock::on_lock(&a, "A");
    deadlock::on_unlock(&a);
  }
  EXPECT_EQ(deadlock::edge_count(), 0u);
  EXPECT_EQ(deadlock::held_count(), 0u);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(DeadlockDetectTest, RepeatedNestingDedupesToOneEdge) {
  HookCapture capture;
  int a = 0;
  int b = 0;
  for (int i = 0; i < 1000; ++i) {
    deadlock::on_lock(&a, "A");
    deadlock::on_lock(&b, "B");
    deadlock::on_unlock(&b);
    deadlock::on_unlock(&a);
  }
  // The first iteration creates the single A->B edge; every later one
  // hits the dedup check and allocates nothing.
  EXPECT_EQ(deadlock::edge_count(), 1u);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(DeadlockDetectTest, UnlockBeforeNestedAcquireCreatesNoEdge) {
  HookCapture capture;
  int a = 0;
  int b = 0;
  // The pool's run_task idiom: drop the held lock before acquiring the
  // next one. Ordering is never established, so no edge and no cycle
  // even when a later path orders them the other way.
  deadlock::on_lock(&a, "A");
  deadlock::on_unlock(&a);
  deadlock::on_lock(&b, "B");
  deadlock::on_unlock(&b);
  deadlock::on_lock(&b, "B");
  deadlock::on_unlock(&b);
  deadlock::on_lock(&a, "A");
  deadlock::on_unlock(&a);
  EXPECT_EQ(deadlock::edge_count(), 0u);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(DeadlockDetectTest, ThreeLockCycleAcrossThreadsIsFound) {
  HookCapture capture;
  int a = 0;
  int b = 0;
  int c = 0;
  ThreadPool pool(2);
  const auto nest = [&](const void* first, const char* n1, const void* second,
                        const char* n2) {
    TaskGroup group(pool);
    group.submit([&, first, second, n1, n2] {
      deadlock::on_lock(first, n1);
      deadlock::on_lock(second, n2);
      deadlock::on_unlock(second);
      deadlock::on_unlock(first);
    });
    group.wait();
  };
  nest(&a, "A", &b, "B");
  nest(&b, "B", &c, "C");
  ASSERT_TRUE(capture.reports().empty());
  nest(&c, "C", &a, "A");  // closes A->B->C->A
  const auto reports = capture.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports.front().cycle.size(), 3u);
}

TEST(DeadlockDetectTest, InstrumentedWrappersReportSeededInversion) {
#if defined(FAULTYRANK_DEADLOCK_DETECT)
  HookCapture capture;
  Mutex mutex_a("order_test_a");
  Mutex mutex_b("order_test_b");

  ThreadPool pool(2);
  {
    TaskGroup group(pool);
    group.submit([&] {
      MutexLock hold_a(mutex_a);
      MutexLock hold_b(mutex_b);
    });
    group.wait();
  }
  {
    TaskGroup group(pool);
    group.submit([&] {
      MutexLock hold_b(mutex_b);
      MutexLock hold_a(mutex_a);  // fr_analyze: allow(lock-order-cycle)
    });
    group.wait();
  }

  const auto reports = capture.reports();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_NE(reports.front().text.find("order_test_a"), std::string::npos);
  EXPECT_NE(reports.front().text.find("order_test_b"), std::string::npos);
#else
  GTEST_SKIP() << "wrapper instrumentation needs FAULTYRANK_DEADLOCK_DETECT "
                  "(use the `deadlock` preset)";
#endif
}

}  // namespace
}  // namespace faultyrank
