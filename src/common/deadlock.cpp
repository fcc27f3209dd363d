#include "common/deadlock.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace faultyrank::deadlock {

namespace {

/// A lock currently held by this thread. The name pointer is the
/// wrapper's static string (or nullptr); it is captured here so both
/// endpoints of an edge can be named when the edge is created.
struct HeldEntry {
  const void* mutex = nullptr;
  const char* name = nullptr;
};

thread_local std::vector<HeldEntry> t_held;

// The registry deliberately uses the raw std primitive: instrumented
// Mutex would recurse straight back into on_lock.
std::mutex g_mu;  // fr_analyze: allow(mutex-needs-guards)
std::map<const void*, std::set<const void*>> g_edges;
std::map<const void*, std::string> g_names;
std::size_t g_edge_count = 0;
std::function<void(const CycleReport&)> g_hook;

void remember_name(const void* mutex, const char* name) {
  if (name == nullptr) return;
  auto [it, inserted] = g_names.emplace(mutex, name);
  (void)it;
  (void)inserted;
}

std::string name_of(const void* mutex) {
  const auto it = g_names.find(mutex);
  return it == g_names.end() ? std::string() : it->second;
}

std::string describe(const void* mutex) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%p", mutex);
  const std::string name = name_of(mutex);
  return name.empty() ? std::string(buf) : name + " (" + buf + ")";
}

/// DFS from `from` looking for `target` over g_edges; fills `path`
/// with the node sequence from..target when found. Called with g_mu
/// held.
bool find_path(const void* from, const void* target,
               std::set<const void*>& seen, std::vector<const void*>& path) {
  path.push_back(from);
  if (from == target) return true;
  const auto it = g_edges.find(from);
  if (it != g_edges.end()) {
    for (const void* next : it->second) {
      if (!seen.insert(next).second) continue;
      if (find_path(next, target, seen, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

/// Builds the report for a cycle discovered when acquiring `mutex`
/// while `holder` was held: the existing path mutex→…→holder plus the
/// new edge holder→mutex. Called with g_mu held; the hook runs after
/// release.
CycleReport build_report(const std::vector<const void*>& path,
                         const void* mutex) {
  CycleReport report;
  report.cycle = path;
  std::string order;
  for (const void* node : path) {
    report.cycle_names.push_back(name_of(node));
    if (!order.empty()) order += " -> ";
    order += describe(node);
  }
  order += " -> " + describe(mutex);  // closes the cycle

  std::string held;
  for (const HeldEntry& entry : t_held) {
    if (!held.empty()) held += ", ";
    held += describe(entry.mutex);
  }

  char tid[32];
  std::snprintf(tid, sizeof tid, "%zu",
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
  report.text = "lock-order cycle detected acquiring " + describe(mutex) +
                "\n  cycle: " + order + "\n  thread " + tid +
                " currently holds: " + (held.empty() ? "(nothing)" : held) +
                "\n  (each edge A -> B means some execution acquired B while "
                "holding A)";
  return report;
}

void record_acquisition(const void* mutex, const char* name) {
  if (!t_held.empty()) {
    CycleReport report;
    bool found_cycle = false;
    std::function<void(const CycleReport&)> hook;
    {
      std::lock_guard<std::mutex> guard(g_mu);
      remember_name(mutex, name);
      for (const HeldEntry& entry : t_held) {
        if (entry.mutex == mutex) continue;  // re-entrant wrapper layers
        remember_name(entry.mutex, entry.name);
        if (!g_edges[entry.mutex].insert(mutex).second) continue;
        ++g_edge_count;
        // New edge entry.mutex -> mutex: a pre-existing path
        // mutex -> … -> entry.mutex closes a cycle.
        std::set<const void*> seen{mutex};
        std::vector<const void*> path;
        if (!found_cycle && find_path(mutex, entry.mutex, seen, path)) {
          report = build_report(path, mutex);
          found_cycle = true;
        }
      }
      hook = g_hook;
    }
    if (found_cycle) {
      if (hook) {
        hook(report);
      } else {
        std::fprintf(stderr, "[faultyrank] %s\n", report.text.c_str());
        std::abort();
      }
    }
  }
  t_held.push_back({mutex, name});
}

}  // namespace

std::function<void(const CycleReport&)> set_report_hook(
    std::function<void(const CycleReport&)> hook) {
  std::lock_guard<std::mutex> guard(g_mu);
  std::swap(g_hook, hook);
  return hook;
}

void on_lock(const void* mutex, const char* name) {
  record_acquisition(mutex, name);
}

void on_try_lock(const void* mutex, const char* name) {
  record_acquisition(mutex, name);
}

void on_unlock(const void* mutex) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == mutex) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

std::size_t edge_count() {
  std::lock_guard<std::mutex> guard(g_mu);
  return g_edge_count;
}

std::size_t held_count() { return t_held.size(); }

void reset() {
  std::lock_guard<std::mutex> guard(g_mu);
  g_edges.clear();
  g_names.clear();
  g_edge_count = 0;
  t_held.clear();
}

}  // namespace faultyrank::deadlock
