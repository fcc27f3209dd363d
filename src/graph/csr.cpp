#include "graph/csr.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.h"

namespace faultyrank {

Csr Csr::build(std::size_t vertex_count, std::span<const GidEdge> edges,
               ThreadPool* pool) {
  Csr csr;
  csr.offsets_.assign(vertex_count + 1, 0);

  for (const auto& e : edges) {
    if (e.src >= vertex_count || e.dst >= vertex_count) {
      throw std::out_of_range("csr: edge endpoint out of range");
    }
    ++csr.offsets_[e.src + 1];
  }
  std::partial_sum(csr.offsets_.begin(), csr.offsets_.end(),
                   csr.offsets_.begin());

  csr.targets_.resize(edges.size());
  csr.kinds_.resize(edges.size());
  std::vector<std::uint64_t> cursor(csr.offsets_.begin(),
                                    csr.offsets_.end() - 1);
  for (const auto& e : edges) {
    const std::uint64_t slot = cursor[e.src]++;
    csr.targets_[slot] = e.dst;
    csr.kinds_[slot] = e.kind;
  }
  std::vector<std::uint64_t>().swap(cursor);

  // Sort each adjacency by (target, kind) for binary-searchable,
  // deterministic neighbour order. A packed (target << 8 | kind) key
  // orders exactly like the pair; one scratch buffer per range keeps
  // the pass allocation-free.
  static_assert(sizeof(Gid) <= 4 && sizeof(EdgeKind) == 1);
  const std::vector<std::size_t> ranges = csr.edge_ranges(pool);
  for_each_range(pool, ranges, [&](std::size_t first, std::size_t last,
                                   std::size_t) {
    std::vector<std::uint64_t> keys;
    for (std::size_t v = first; v < last; ++v) {
      const std::uint64_t begin = csr.offsets_[v];
      const std::uint64_t end = csr.offsets_[v + 1];
      if (end - begin < 2) continue;
      keys.clear();
      for (auto slot = begin; slot < end; ++slot) {
        keys.push_back(std::uint64_t{csr.targets_[slot]} << 8 |
                       static_cast<std::uint8_t>(csr.kinds_[slot]));
      }
      std::sort(keys.begin(), keys.end());
      for (std::uint64_t i = 0; i < keys.size(); ++i) {
        csr.targets_[begin + i] = static_cast<Gid>(keys[i] >> 8);
        csr.kinds_[begin + i] = static_cast<EdgeKind>(keys[i] & 0xff);
      }
    }
  });
  return csr;
}

Csr Csr::reversed(ThreadPool* pool) const {
  const std::size_t n = vertex_count();
  Csr rev;
  rev.offsets_.assign(offsets_.size(), 0);
  for (const Gid target : targets_) ++rev.offsets_[target + 1];
  std::partial_sum(rev.offsets_.begin(), rev.offsets_.end(),
                   rev.offsets_.begin());
  rev.targets_.resize(targets_.size());
  rev.kinds_.resize(kinds_.size());

  // Each range owns the reverse adjacencies of targets [first, last) and
  // fills them by walking every forward edge in (source, target, kind)
  // order. Slots of one target are therefore written in ascending
  // source order and, per source, ascending kind: build()'s sort order.
  std::vector<std::uint64_t> cursor(
      rev.offsets_.begin(),
      rev.offsets_.begin() + static_cast<std::ptrdiff_t>(n));
  const std::vector<std::size_t> ranges = rev.edge_ranges(pool);
  for_each_range(pool, ranges, [&](std::size_t first, std::size_t last,
                                   std::size_t) {
    for (std::size_t u = 0; u < n; ++u) {
      for (auto slot = offsets_[u]; slot < offsets_[u + 1]; ++slot) {
        const Gid v = targets_[slot];
        if (v < first || v >= last) continue;
        const std::uint64_t out = cursor[v]++;
        rev.targets_[out] = static_cast<Gid>(u);
        rev.kinds_[out] = kinds_[slot];
      }
    }
  });
  return rev;
}

std::vector<std::size_t> Csr::edge_ranges(ThreadPool* pool) const {
  return partition_by_weight(offsets_, pool != nullptr ? pool->size() : 1);
}

bool Csr::has_edge(Gid u, Gid v) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  return std::binary_search(begin, end, v);
}

bool Csr::has_edge(Gid u, Gid v, EdgeKind kind) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  auto [lo, hi] = std::equal_range(begin, end, v);
  for (auto it = lo; it != hi; ++it) {
    const auto slot = static_cast<std::uint64_t>(it - targets_.begin());
    if (kinds_[slot] == kind) return true;
  }
  return false;
}

std::uint64_t Csr::edge_multiplicity(Gid u, Gid v) const noexcept {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  auto [lo, hi] = std::equal_range(begin, end, v);
  return static_cast<std::uint64_t>(hi - lo);
}

}  // namespace faultyrank
