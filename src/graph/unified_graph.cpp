#include "graph/unified_graph.h"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.h"

namespace faultyrank {

UnifiedGraph UnifiedGraph::aggregate(std::span<const PartialGraph> partials,
                                     ThreadPool* pool) {
  std::size_t total_vertices = 0;
  std::size_t total_edges = 0;
  for (const PartialGraph& partial : partials) {
    total_vertices += partial.vertices.size();
    total_edges += partial.edges.size();
  }
  VertexTable vertices;
  vertices.reserve(total_vertices);
  for (const PartialGraph& partial : partials) {
    for (const VertexRecord& vertex : partial.vertices) {
      vertices.intern_scanned(vertex.fid, vertex.kind);
    }
  }
  std::vector<GidEdge> edges;
  edges.reserve(total_edges);
  for (const PartialGraph& partial : partials) {
    for (const FidEdge& e : partial.edges) {
      const Gid src = vertices.intern_referenced(e.src);
      const Gid dst = vertices.intern_referenced(e.dst);
      edges.push_back({src, dst, e.kind});
    }
  }
  return from_table(std::move(vertices), std::move(edges), pool);
}

UnifiedGraph UnifiedGraph::from_table(VertexTable vertices,
                                      std::vector<GidEdge> edges,
                                      ThreadPool* pool) {
  UnifiedGraph g;
  g.vertices_ = std::move(vertices);
  g.forward_ = Csr::build(g.vertices_.size(), edges, pool);
  // The forward CSR holds every edge now: free the list before the
  // reverse and pairing passes allocate theirs.
  std::vector<GidEdge>().swap(edges);
  g.finalize(pool);
  return g;
}

UnifiedGraph UnifiedGraph::from_edges(std::size_t vertex_count,
                                      std::span<const GidEdge> edges,
                                      ThreadPool* pool) {
  UnifiedGraph g;
  g.vertices_.reserve(vertex_count);
  for (std::size_t v = 0; v < vertex_count; ++v) {
    // Synthesize FIDs so bench graphs flow through the same machinery.
    g.vertices_.intern_scanned(
        Fid{/*seq=*/1, /*oid=*/static_cast<std::uint32_t>(v), /*ver=*/0},
        ObjectKind::kOther);
  }
  g.forward_ = Csr::build(vertex_count, edges, pool);
  g.finalize(pool);
  return g;
}

void UnifiedGraph::finalize(ThreadPool* pool) {
  reverse_ = forward_.reversed(pool);

  const std::size_t n = vertices_.size();
  forward_paired_.resize(forward_.edge_count());
  in_paired_.resize(n);
  in_unpaired_.resize(n);

  // Pairing: merge the sorted out(x) with the sorted in(x) per vertex x.
  // Slot x→y is paired iff y ∈ in(x), i.e. y→x exists; an in-edge y→x is
  // paired iff y ∈ out(x). Every write is owned by x, so ranges of x need
  // no synchronization; each range also counts its unpaired slots.
  const std::vector<std::size_t> ranges = forward_.edge_ranges(pool);
  const std::span<const Gid> out = forward_.targets();
  const std::span<const Gid> in = reverse_.targets();
  std::vector<std::uint64_t> range_unpaired(ranges.size(), 0);
  for_each_range(pool, ranges, [&](std::size_t first, std::size_t last,
                                   std::size_t range) {
    std::uint64_t unpaired_slots = 0;
    for (auto x = static_cast<Gid>(first); x < last; ++x) {
      const std::uint64_t o_end = forward_.edges_end(x);
      const std::uint64_t i_end = reverse_.edges_end(x);
      std::uint64_t i = reverse_.edges_begin(x);
      std::uint32_t paired_in = 0;
      for (std::uint64_t o = forward_.edges_begin(x); o < o_end;) {
        const Gid y = out[o];
        while (i < i_end && in[i] < y) ++i;
        const std::uint64_t i_run = i;
        while (i < i_end && in[i] == y) ++i;
        paired_in += static_cast<std::uint32_t>(i - i_run);
        const std::uint64_t o_run = o;
        while (o < o_end && out[o] == y) ++o;
        std::fill(forward_paired_.begin() + static_cast<std::ptrdiff_t>(o_run),
                  forward_paired_.begin() + static_cast<std::ptrdiff_t>(o),
                  i > i_run ? 1 : 0);
        if (i == i_run) unpaired_slots += o - o_run;
      }
      in_paired_[x] = paired_in;
      in_unpaired_[x] =
          static_cast<std::uint32_t>(reverse_.out_degree(x) - paired_in);
    }
    range_unpaired[range] = unpaired_slots;
  });

  // Unpaired list in (source GID, slot) order: an exclusive prefix sum
  // over the range counts gives each range its write offset.
  std::exclusive_scan(range_unpaired.begin(), range_unpaired.end(),
                      range_unpaired.begin(), std::uint64_t{0});
  unpaired_.resize(range_unpaired.back());
  for_each_range(pool, ranges, [&](std::size_t first, std::size_t last,
                                   std::size_t range) {
    std::uint64_t next = range_unpaired[range];
    for (auto x = static_cast<Gid>(first); x < last; ++x) {
      for (auto slot = forward_.edges_begin(x); slot < forward_.edges_end(x);
           ++slot) {
        if (forward_paired_[slot] == 0) {
          unpaired_[next++] = {x, out[slot], forward_.kind(slot)};
        }
      }
    }
  });
}

std::uint64_t UnifiedGraph::bytes() const {
  return vertices_.bytes() + forward_.bytes() + reverse_.bytes() +
         forward_paired_.capacity() +
         in_paired_.capacity() * sizeof(std::uint32_t) +
         in_unpaired_.capacity() * sizeof(std::uint32_t) +
         unpaired_.capacity() * sizeof(UnpairedEdge);
}

}  // namespace faultyrank
