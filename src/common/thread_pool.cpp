#include "common/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace faultyrank {

namespace {

/// Pops one task of `group` — shared queue first, then any worker's
/// pinned queue — so group waiters always make progress even when a
/// pinned target is busy or is the waiter itself. Caller holds the
/// pool mutex.
template <typename Queue, typename PinnedQueues>
bool steal_group_task(Queue& queue, PinnedQueues& pinned, TaskGroup* group,
                      typename Queue::value_type& out) {
  const auto mine = [group](const auto& t) { return t.group == group; };
  if (auto it = std::find_if(queue.begin(), queue.end(), mine);
      it != queue.end()) {
    out = std::move(*it);
    queue.erase(it);
    return true;
  }
  for (auto& q : pinned) {
    if (auto it = std::find_if(q.begin(), q.end(), mine); it != q.end()) {
      out = std::move(*it);
      q.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace

TaskGroup::~TaskGroup() {
  MutexLock lock(pool_.mutex_);
  while (pending_ > 0) {
    // Drain like wait(), stealing our own queued tasks, but swallow the
    // exception slot: destructors must not throw.
    ThreadPool::Task task;
    if (steal_group_task(pool_.queue_, pool_.pinned_, this, task)) {
      lock.unlock();
      pool_.run_task(std::move(task));
      lock.lock();
      continue;
    }
    done_.wait(lock);
  }
}

void TaskGroup::submit(std::function<void()> task) {
  {
    MutexLock lock(pool_.mutex_);
    if (pool_.stopping_) {
      throw std::runtime_error("thread pool: submit after shutdown");
    }
    pool_.queue_.push_back({this, std::move(task)});
    ++pending_;
    ++pool_.in_flight_;
  }
  pool_.work_available_.notify_one();
  // A waiter blocked in wait() can steal the new task even if every
  // worker is busy — required for progress under nesting.
  done_.notify_all();
}

void TaskGroup::submit_pinned(std::size_t worker, std::function<void()> task) {
  {
    MutexLock lock(pool_.mutex_);
    if (pool_.stopping_) {
      throw std::runtime_error("thread pool: submit after shutdown");
    }
    pool_.pinned_[worker % pool_.pinned_.size()].push_back(
        {this, std::move(task)});
    ++pending_;
    ++pool_.in_flight_;
  }
  // Every worker checks its own pinned queue on wake, so all must be
  // woken: notify_one could rouse a worker whose pinned queue is empty,
  // which would go back to sleep without the target ever waking.
  pool_.work_available_.notify_all();
  done_.notify_all();
}

void TaskGroup::wait() {
  {
    MutexLock lock(pool_.mutex_);
    while (pending_ > 0) {
      ThreadPool::Task task;
      if (steal_group_task(pool_.queue_, pool_.pinned_, this, task)) {
        lock.unlock();
        pool_.run_task(std::move(task));
        lock.lock();
        continue;
      }
      done_.wait(lock);
    }
  }
  rethrow_pending();
}

void TaskGroup::finish_one(std::exception_ptr error) {
  MutexLock lock(pool_.mutex_);
  if (error != nullptr && exception_ == nullptr) {
    exception_ = error;
  }
  // Always settle the counters, even on failure — a throwing task
  // must not wedge wait()/wait_idle().
  if (--pending_ == 0) done_.notify_all();
  if (--pool_.in_flight_ == 0) pool_.idle_.notify_all();
}

void TaskGroup::rethrow_pending() {
  std::exception_ptr first;
  {
    MutexLock lock(pool_.mutex_);
    first = std::exchange(exception_, nullptr);
  }
  if (first != nullptr) std::rethrow_exception(first);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  {
    // Sized before any worker starts and never resized again: workers
    // hold a queue per index, and TaskGroup waiters iterate the vector.
    // No concurrency exists yet, but the guard annotation is on the
    // member, so honour it.
    MutexLock lock(mutex_);
    pinned_.resize(threads);
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  default_group_.submit(std::move(task));
}

void ThreadPool::wait_idle() {
  {
    MutexLock lock(mutex_);
    while (in_flight_ > 0) idle_.wait(lock);
  }
  // in_flight_ hit 0, so no task of any group is still running; callers
  // of wait_idle() own the pool exclusively, so nothing re-submits
  // between the barrier and this rethrow.
  default_group_.rethrow_pending();
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, std::max<std::size_t>(size(), 1));
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  TaskGroup group(*this);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    group.submit([&body, begin, end, c] { body(begin, end, c); });
  }
  group.wait();
}

void ThreadPool::parallel_for_ranges(
    std::span<const std::size_t> boundaries,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    bool sticky) {
  if (boundaries.size() < 2) return;
  TaskGroup group(*this);
  for (std::size_t c = 0; c + 1 < boundaries.size(); ++c) {
    const std::size_t begin = boundaries[c];
    const std::size_t end = boundaries[c + 1];
    if (begin >= end) continue;
    auto task = [&body, begin, end, c] { body(begin, end, c); };
    if (sticky) {
      group.submit_pinned(c, std::move(task));
    } else {
      group.submit(std::move(task));
    }
  }
  group.wait();
}

std::vector<std::size_t> partition_by_weight(
    std::span<const std::uint64_t> prefix, std::size_t chunks,
    std::size_t align) {
  if (prefix.size() <= 1) return {0};
  const std::size_t n = prefix.size() - 1;
  const std::uint64_t total = prefix[n] - prefix[0];
  if (chunks <= 1 || total == 0) return {0, n};
  if (align == 0) align = 1;

  std::vector<std::size_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  for (std::size_t c = 1; c < chunks; ++c) {
    // total·c stays well inside 64 bits: edge counts are < 2^40 and
    // chunk counts are core counts.
    const std::uint64_t target = prefix[0] + total * c / chunks;
    auto v = static_cast<std::size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
    if (align > 1) {
      // Snap to the nearer aligned neighbour (ties go down; never
      // overshoot n).
      const std::size_t down = v / align * align;
      const std::size_t up = down + align;
      v = (up <= n && up - v < v - down) ? up : down;
    }
    v = std::min(v, n);
    if (v > bounds.back() && v < n) bounds.push_back(v);
  }
  bounds.push_back(n);
  return bounds;
}

void for_each_range(
    ThreadPool* pool, std::span<const std::size_t> boundaries,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for_ranges(boundaries, body);
    return;
  }
  for (std::size_t c = 0; c + 1 < boundaries.size(); ++c) {
    if (boundaries[c] < boundaries[c + 1]) {
      body(boundaries[c], boundaries[c + 1], c);
    }
  }
}

void ThreadPool::run_task(Task task) {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.group->finish_one(std::move(error));
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    Task task;
    {
      MutexLock lock(mutex_);
      auto& mine = pinned_[worker_index];
      while (!stopping_ && queue_.empty() && mine.empty()) {
        work_available_.wait(lock);
      }
      // Own pinned queue first — that is the whole affinity contract —
      // then the shared queue. On shutdown, drain both before exiting
      // (group waiters could also steal the leftovers, but a worker
      // must never exit with work only it would otherwise run).
      if (!mine.empty()) {
        task = std::move(mine.front());
        mine.pop_front();
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else {
        return;  // stopping_ and both queues drained
      }
    }
    run_task(std::move(task));
  }
}

}  // namespace faultyrank
