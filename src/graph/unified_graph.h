// The unified metadata graph (paper §III-A, §IV-B).
//
// Combines all partial graphs into one FID-keyed vertex set with dense
// GIDs, forward + reversed CSR adjacency, and the paired-edge analysis
// the FaultyRank algorithm and the detector both consume:
//   * paired(slot)      — does the opposite-direction edge exist?
//   * in-degree split   — paired vs unpaired in-edge counts per vertex,
//                         from which the algorithm derives the weighted
//                         reverse-graph out-degree W(v) for any
//                         unpaired-edge weight (Fig. 4).
//   * unpaired_edges()  — the S_chk seed: every edge lacking its
//                         point-back counterpart.
// The analysis is one linear merge per vertex of its sorted out- and
// in-adjacency, run over edge-balanced vertex ranges; see finalize().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/partial_graph.h"
#include "graph/types.h"
#include "graph/vertex_table.h"

namespace faultyrank {

class ThreadPool;

/// One edge that lacks its opposite-direction counterpart.
struct UnpairedEdge {
  Gid src = 0;
  Gid dst = 0;
  EdgeKind kind = EdgeKind::kGeneric;

  friend bool operator==(const UnpairedEdge&, const UnpairedEdge&) = default;
};

class UnifiedGraph {
 public:
  /// Merges partial graphs in the given order (deterministic GIDs):
  /// every partial's vertices are interned first, then every edge's
  /// endpoints, src before dst, on one thread. FIDs referenced by edges
  /// but scanned on no server become phantom vertices. The pool, if
  /// given, runs the CSR sort, transpose and pairing passes; the result
  /// is byte-identical for any thread count.
  [[nodiscard]] static UnifiedGraph aggregate(
      std::span<const PartialGraph> partials, ThreadPool* pool = nullptr);

  /// Builds the CSR and pairing analysis over an interned vertex table
  /// and edges already remapped to its GIDs — the step every graph build
  /// ends in. Every edge endpoint must be < vertices.size(). The edge
  /// list is freed as soon as the forward CSR holds it.
  [[nodiscard]] static UnifiedGraph from_table(VertexTable vertices,
                                               std::vector<GidEdge> edges,
                                               ThreadPool* pool = nullptr);

  /// Builds directly from a dense edge list (benchmark graphs), read in
  /// place. All vertices are considered scanned, kind kOther. The pool
  /// is used as in aggregate().
  [[nodiscard]] static UnifiedGraph from_edges(std::size_t vertex_count,
                                               std::span<const GidEdge> edges,
                                               ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t vertex_count() const {
    return vertices_.size();
  }
  [[nodiscard]] std::uint64_t edge_count() const {
    return forward_.edge_count();
  }

  [[nodiscard]] const VertexTable& vertices() const { return vertices_; }
  /// Moves the vertex table out, leaving the graph unusable — for
  /// callers that outlive the graph but still need its FID → GID map.
  [[nodiscard]] VertexTable take_vertices() && { return std::move(vertices_); }
  [[nodiscard]] const Csr& forward() const { return forward_; }
  [[nodiscard]] const Csr& reverse() const { return reverse_; }

  /// Pairing flag for a forward edge slot.
  [[nodiscard]] bool paired(std::uint64_t forward_slot) const {
    return forward_paired_[forward_slot] != 0;
  }

  [[nodiscard]] std::uint32_t paired_in_degree(Gid v) const {
    return in_paired_[v];
  }
  [[nodiscard]] std::uint32_t unpaired_in_degree(Gid v) const {
    return in_unpaired_[v];
  }

  [[nodiscard]] const std::vector<UnpairedEdge>& unpaired_edges() const {
    return unpaired_;
  }

  [[nodiscard]] std::uint64_t bytes() const;

 private:
  /// Builds reverse_ and the pairing analysis from forward_: the
  /// transpose, then per vertex x one merge of out(x) with in(x) (slot
  /// x→y is paired iff y ∈ in(x); in_paired_[x] counts the y ∈ in(x)
  /// that are also in out(x)), then the unpaired list written in place
  /// at per-range offsets. The pairing passes run over
  /// forward_.edge_ranges(), the transpose over the reverse CSR's.
  void finalize(ThreadPool* pool);

  VertexTable vertices_;
  Csr forward_;
  Csr reverse_;
  std::vector<std::uint8_t> forward_paired_;
  std::vector<std::uint32_t> in_paired_;
  std::vector<std::uint32_t> in_unpaired_;
  std::vector<UnpairedEdge> unpaired_;
};

}  // namespace faultyrank
