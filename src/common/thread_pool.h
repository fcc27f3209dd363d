// Fixed-size thread pool with independent task groups.
//
// Used by the scanner driver (one task per simulated server), the
// streaming aggregator, and the rank kernel (vertex-range
// partitioning). Rank updates are pull-style, so workers write disjoint
// output ranges and need no synchronization beyond the fork/join
// barrier.
//
// Concurrency model: every task belongs to a TaskGroup, which carries
// its own completion counter and captured-exception slot. Independent
// callers (scanner, aggregator, rank kernel, online checker) can share
// one pool without interfering through a global counter: each waits on
// its own group. TaskGroup::wait() additionally *steals* queued tasks
// belonging to its own group and runs them inline, so a worker that
// starts a nested parallel_for makes progress even when every other
// worker is busy — nesting cannot deadlock.
//
// All cross-thread state — the queue, the in-flight counter, every
// group's pending counter and exception slot — is guarded by the one
// pool mutex and annotated for the thread-safety analysis. Group
// settling lives in TaskGroup::finish_one() rather than the pool so
// the annotations resolve against the same capability expression
// (`pool_.mutex_`) the guarded fields are declared with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace faultyrank {

class ThreadPool;

/// A completion scope for a batch of related tasks. All state is
/// guarded by the owning pool's mutex; the group must outlive its tasks
/// (the destructor drains any still pending).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  /// Drains remaining tasks. A pending exception that was never
  /// observed via wait() is dropped, not rethrown (destructors must not
  /// throw) — call wait() if you care.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task on the pool, tagged with this group.
  /// Throws std::runtime_error if the pool has been shut down.
  void submit(std::function<void()> task);

  /// Enqueues a task preferring a specific worker (`worker` is taken
  /// modulo the pool size). The target worker drains its pinned queue
  /// before touching the shared one, so repeated sticky submissions of
  /// the same index land on the same thread — the NUMA first-touch
  /// contract of parallel_for_ranges(..., sticky). Affinity is a
  /// *hint*: group waiters may still steal a pinned task (progress
  /// under nesting beats placement), so correctness never depends on
  /// where the task ran. Throws std::runtime_error after shutdown.
  void submit_pinned(std::size_t worker, std::function<void()> task);

  /// Blocks until every task submitted to *this group* has finished.
  /// While waiting, steals queued tasks of this group and runs them on
  /// the calling thread (safe to call from inside a pool worker).
  /// Rethrows the first exception any task of the group threw.
  void wait();

 private:
  friend class ThreadPool;

  /// Records the task outcome and settles this group's and the pool's
  /// counters; called by workers and stealing waiters after running a
  /// task of this group outside the lock.
  void finish_one(std::exception_ptr error);

  /// Rethrows (and clears) the captured first failure, if any.
  void rethrow_pending();

  ThreadPool& pool_;
  std::size_t pending_ FR_GUARDED_BY(pool_.mutex_) = 0;
  std::exception_ptr exception_ FR_GUARDED_BY(pool_.mutex_);  // first failure
  CondVar done_;  // pending_ reached 0 / new steal target
};

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues an ungrouped task (it joins the pool's default group).
  /// Prefer a TaskGroup when anything else might share the pool.
  /// Throws std::runtime_error if the pool has been shut down.
  void submit(std::function<void()> task);

  /// Drain-all barrier: blocks until every task from *every* group has
  /// finished, then rethrows the first exception an ungrouped task
  /// threw. Footgun when the pool is shared — two concurrent callers
  /// each observe the other's latency — so pipeline code uses
  /// TaskGroup::wait() instead; this remains for callers that own the
  /// pool exclusively (tests, one-shot tools).
  void wait_idle();

  /// Splits [0, n) into one contiguous chunk per worker and runs
  /// body(begin, end, chunk_index) on the pool; blocks until all chunks
  /// complete and rethrows the first exception a chunk threw. Runs in
  /// its own TaskGroup, so concurrent parallel_for calls do not
  /// interfere and nested calls from inside a worker cannot deadlock.
  /// Chunk boundaries depend only on (n, size()), so results of
  /// pull-style kernels are deterministic for a fixed thread count.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& body);

  /// Runs body(begin, end, range_index) for each consecutive boundary
  /// pair of `boundaries` (as produced by partition_by_weight); blocks
  /// until all ranges complete and rethrows the first exception a range
  /// threw. Empty ranges are skipped but keep their index, so
  /// range_index always names the same [begin, end) for a given
  /// boundary list regardless of pool size. Runs in its own TaskGroup
  /// (nesting-safe, like parallel_for).
  ///
  /// With `sticky`, range c is pinned to worker c % size(): every
  /// sticky fork over the same boundary list sends the same range to
  /// the same thread. That makes first-touch page placement line up
  /// with the sweeps — the thread that initializes a coefficient range
  /// is the thread that gathers over it on every iteration, so a
  /// multi-socket machine keeps those pages on the sweeping node.
  /// Stickiness is best-effort (waiters may steal for progress) and
  /// never affects results: range boundaries and indices are identical
  /// either way.
  void parallel_for_ranges(std::span<const std::size_t> boundaries,
                           const std::function<void(std::size_t, std::size_t,
                                                    std::size_t)>& body,
                           bool sticky = false);

  /// Joins all workers after draining the queue. Subsequent submits
  /// throw. Idempotent; the destructor calls it.
  void shutdown();

 private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group = nullptr;
    std::function<void()> fn;
  };

  void worker_loop(std::size_t worker_index);
  /// Runs one task outside the lock, then settles it via
  /// TaskGroup::finish_one.
  void run_task(Task task);

  std::vector<std::thread> workers_;
  Mutex mutex_{"ThreadPool::mutex_"};
  std::deque<Task> queue_ FR_GUARDED_BY(mutex_);
  /// One pinned queue per worker (submit_pinned). Each worker drains
  /// its own pinned queue before the shared one; group waiters may
  /// steal from any pinned queue so pinning can never deadlock.
  std::vector<std::deque<Task>> pinned_ FR_GUARDED_BY(mutex_);
  CondVar work_available_;
  CondVar idle_;
  std::size_t in_flight_ FR_GUARDED_BY(mutex_) = 0;  // for wait_idle()
  bool stopping_ FR_GUARDED_BY(mutex_) = false;
  /// Group for ungrouped submit(); declared last so it is destroyed
  /// first, after ~ThreadPool's body has already joined the workers.
  TaskGroup default_group_{*this};
};

/// Splits [0, n) (n = prefix.size() - 1) into at most `chunks`
/// contiguous ranges of ~equal *weight*, where the weight of [a, b) is
/// prefix[b] - prefix[a]. A CSR offset array is exactly such a prefix
/// sum, so this yields edge-balanced vertex ranges: a single
/// million-entry directory no longer lands in one straggler chunk of a
/// vertex-count split. Boundaries are found by binary search and, with
/// align > 1, snapped to the nearest multiple of `align` (callers that
/// fuse block-grouped reductions into the ranges need chunk boundaries
/// that never split a reduction block).
///
/// Returns strictly increasing boundaries starting at 0 and ending at
/// n; a vertex whose weight exceeds the per-chunk quota consumes
/// several quotas, so fewer than `chunks` ranges may come back. For an
/// empty prefix the result is {0}.
[[nodiscard]] std::vector<std::size_t> partition_by_weight(
    std::span<const std::uint64_t> prefix, std::size_t chunks,
    std::size_t align = 1);

/// Runs body(begin, end, range_index) for each consecutive boundary pair
/// of `boundaries`: on `pool` through parallel_for_ranges, or in range
/// order on the calling thread when `pool` is null. Callers that write
/// only range-owned state get the same result either way.
void for_each_range(
    ThreadPool* pool, std::span<const std::size_t> boundaries,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace faultyrank
