// Compressed Sparse Row adjacency — the in-DRAM representation the
// FaultyRank prototype uses for "extreme performance" (paper §IV-B).
//
// Built once from an edge triple list with a counting sort; adjacency
// lists are sorted by (target, kind) so membership tests are binary
// searches, merges are linear and iteration order is deterministic.
// That per-vertex sort is the only comparison sort in a graph build:
// the reverse CSR is the transpose of the sorted forward one, scattered
// in ascending-source order, so it comes out sorted by (source, kind)
// already. Multi-edges are kept: a corrupted directory can legitimately
// contain duplicate entries, and the Double Reference scenarios depend
// on seeing both copies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace faultyrank {

class ThreadPool;

/// One edge as fed to the CSR builder.
struct GidEdge {
  Gid src = 0;
  Gid dst = 0;
  EdgeKind kind = EdgeKind::kGeneric;

  friend bool operator==(const GidEdge&, const GidEdge&) = default;
};

class Csr {
 public:
  Csr() = default;

  /// Builds adjacency over `vertex_count` vertices. Edges may arrive in
  /// any order; an endpoint >= vertex_count throws std::out_of_range.
  /// The count and scatter run on the calling thread; the per-vertex
  /// sort runs over edge_ranges(pool). The result does not depend on
  /// the pool.
  static Csr build(std::size_t vertex_count, std::span<const GidEdge> edges,
                   ThreadPool* pool = nullptr);

  /// The edge-reversed graph (dst→src) over the same vertex set, equal
  /// to build() over the reversed edges. Each range of targets is filled
  /// by one task that walks the sources in ascending order, so no slot is
  /// contended and no adjacency needs sorting.
  [[nodiscard]] Csr reversed(ThreadPool* pool = nullptr) const;

  /// Vertex ranges of about equal edge count (partition_by_weight over
  /// offsets()), one per worker of `pool`, or one range without a pool.
  /// Every per-vertex pass of a graph build splits its work this way.
  [[nodiscard]] std::vector<std::size_t> edge_ranges(ThreadPool* pool) const;

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return targets_.size();
  }

  [[nodiscard]] std::uint64_t out_degree(Gid v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Half-open range of edge slots [begin, end) for vertex v; index the
  /// target()/kind() arrays with these.
  [[nodiscard]] std::uint64_t edges_begin(Gid v) const noexcept {
    return offsets_[v];
  }
  [[nodiscard]] std::uint64_t edges_end(Gid v) const noexcept {
    return offsets_[v + 1];
  }

  /// The raw offset (degree prefix-sum) array: offsets()[v] ==
  /// edges_begin(v), offsets()[vertex_count()] == edge_count(). Exposed
  /// so edge-balanced schedulers can binary-search chunk boundaries
  /// (ThreadPool's partition_by_weight takes exactly this shape).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }

  [[nodiscard]] Gid target(std::uint64_t slot) const noexcept {
    return targets_[slot];
  }
  /// The raw slot→target array. The planned rank kernel walks whole
  /// adjacency runs of it through a raw pointer in its gather loop,
  /// rather than calling target() per slot.
  [[nodiscard]] std::span<const Gid> targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] EdgeKind kind(std::uint64_t slot) const noexcept {
    return kinds_[slot];
  }

  /// True if at least one u→v edge exists (any kind). O(log deg(u)).
  [[nodiscard]] bool has_edge(Gid u, Gid v) const noexcept;

  /// True if a u→v edge of exactly this kind exists.
  [[nodiscard]] bool has_edge(Gid u, Gid v, EdgeKind kind) const noexcept;

  /// Number of u→v edge instances (any kind).
  [[nodiscard]] std::uint64_t edge_multiplicity(Gid u, Gid v) const noexcept;

  /// Exact heap footprint of the structure (Table IV/V memory column).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           targets_.capacity() * sizeof(Gid) +
           kinds_.capacity() * sizeof(EdgeKind);
  }

 private:
  // offsets_[v] .. offsets_[v+1] index targets_/kinds_.
  std::vector<std::uint64_t> offsets_;
  std::vector<Gid> targets_;
  std::vector<EdgeKind> kinds_;
};

}  // namespace faultyrank
