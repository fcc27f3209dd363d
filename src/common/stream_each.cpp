// stream_each (declared in thread_pool.h): the one pool-or-caller
// decision behind the cluster scan and the scan→aggregate pipeline.
#include <algorithm>
#include <optional>

#include "common/bounded_queue.h"
#include "common/thread_pool.h"

namespace faultyrank {

bool stream_each(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& work,
                 const std::function<bool(std::size_t)>& ready,
                 const std::function<void(std::size_t)>& after) {
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      work(i);
      if (ready && !ready(i)) return false;
      if (after) after(i);
    }
    return true;
  }
  // Workers announce each finished item through a bounded queue, whose
  // bound stalls them rather than letting finished items pile up ahead
  // of the caller. Closing it ends the stream: pending items skip their
  // work, and a blocked push gives up (and skips its after stage).
  // Declared before the group, so the group drains first.
  BoundedQueue<std::size_t> finished(std::max<std::size_t>(2, pool->size()));
  TaskGroup group(*pool);
  for (std::size_t i = 0; i < n; ++i) {
    group.submit([&, i] {
      if (finished.closed()) return;
      try {
        work(i);
      } catch (...) {
        finished.close();  // wakes the caller; wait() rethrows
        throw;
      }
      // Queued behind the work still waiting, so that work keeps its
      // place, and the caller helps run it in wait().
      if (finished.push(i) && after) group.submit([&after, i] { after(i); });
    });
  }
  bool keep_going = true;
  try {
    for (std::size_t k = 0; k < n && keep_going; ++k) {
      const std::optional<std::size_t> i = finished.pop();
      if (!i) break;  // a work stage threw
      keep_going = !ready || ready(*i);
    }
  } catch (...) {
    finished.close();  // the group's destructor drains the rest
    throw;
  }
  finished.close();
  group.wait();
  return keep_going;
}

}  // namespace faultyrank
