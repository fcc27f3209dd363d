#include "online/mutable_graph.h"

#include <algorithm>
#include <stdexcept>

namespace faultyrank {

MutableMetadataGraph::VertexState& MutableMetadataGraph::state_or_throw(
    const Fid& fid, const char* what) {
  const auto it = index_.find(fid);
  if (it == index_.end() || !slots_[it->second].live) {
    throw std::invalid_argument(std::string(what) + ": unknown object " +
                                fid.to_string());
  }
  return slots_[it->second];
}

void MutableMetadataGraph::upsert_vertex(const Fid& fid, ObjectKind kind) {
  if (const auto it = index_.find(fid); it != index_.end()) {
    VertexState& state = slots_[it->second];
    if (!state.live) {
      state.live = true;
      state.out.clear();
      state.scans = 1;
      ++live_vertices_;
      ++generation_;
    } else if (state.kind != kind) {
      ++generation_;
    }
    state.kind = kind;
    return;
  }
  index_.emplace(fid, slots_.size());
  slots_.push_back({fid, kind, /*live=*/true, /*scans=*/1, {}});
  ++live_vertices_;
  ++generation_;
}

bool MutableMetadataGraph::remove_vertex(const Fid& fid) {
  const auto it = index_.find(fid);
  if (it == index_.end() || !slots_[it->second].live) return false;
  VertexState& state = slots_[it->second];
  edge_count_ -= state.out.size();
  state.out.clear();
  state.live = false;
  --live_vertices_;
  ++generation_;
  return true;
}

void MutableMetadataGraph::add_edge(const Fid& src, const Fid& dst,
                                    EdgeKind kind) {
  VertexState& state = state_or_throw(src, "add_edge");
  state.out.emplace_back(dst, kind);
  ++edge_count_;
  ++generation_;
}

bool MutableMetadataGraph::remove_edge(const Fid& src, const Fid& dst,
                                       EdgeKind kind) {
  const auto it = index_.find(src);
  if (it == index_.end() || !slots_[it->second].live) return false;
  auto& out = slots_[it->second].out;
  const auto pos = std::find(out.begin(), out.end(), std::pair(dst, kind));
  if (pos == out.end()) return false;
  out.erase(pos);
  --edge_count_;
  ++generation_;
  return true;
}

void MutableMetadataGraph::replace_object(
    const Fid& fid, ObjectKind kind,
    std::vector<std::pair<Fid, EdgeKind>> out_edges,
    std::uint32_t scan_count) {
  // A scrub that re-reads a healthy inode reproduces its current state
  // exactly; detect that and leave the generation untouched so cached
  // snapshots/plans survive no-op scrub passes. The multiplicity is
  // part of that state: a second inode appearing under this fid must
  // invalidate cached plans even if the edge union happens to match.
  if (const auto it = index_.find(fid); it != index_.end()) {
    const VertexState& state = slots_[it->second];
    if (state.live && state.kind == kind && state.scans == scan_count &&
        state.out == out_edges) {
      return;
    }
  }
  upsert_vertex(fid, kind);
  VertexState& state = slots_[index_.at(fid)];
  edge_count_ -= state.out.size();
  state.out = std::move(out_edges);
  state.scans = scan_count;
  edge_count_ += state.out.size();
  ++generation_;
}

UnifiedGraph MutableMetadataGraph::freeze(ThreadPool* pool) const {
  // Interns in the order UnifiedGraph::aggregate would over one partial
  // holding the live slots: all vertices, then every edge src, dst.
  VertexTable vertices;
  vertices.reserve(live_vertices_);
  for (const VertexState& state : slots_) {
    if (!state.live) continue;
    // One scan per observed physical inode: the scan count then matches
    // an offline merge, which is what drives the detector's duplicate-id
    // (Double Reference) conviction.
    for (std::uint32_t scan = 0; scan < state.scans; ++scan) {
      vertices.intern_scanned(state.fid, state.kind);
    }
  }
  std::vector<GidEdge> edges;
  edges.reserve(edge_count_);
  for (const VertexState& state : slots_) {
    if (!state.live || state.out.empty()) continue;
    const Gid src = vertices.intern_referenced(state.fid);
    for (const auto& [dst, kind] : state.out) {
      edges.push_back({src, vertices.intern_referenced(dst), kind});
    }
  }
  return UnifiedGraph::from_table(std::move(vertices), std::move(edges), pool);
}

}  // namespace faultyrank
