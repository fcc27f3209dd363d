// A mutable, FID-keyed metadata graph for *online* FaultyRank.
//
// The offline pipeline rebuilds the whole CSR from scratch on every
// check; the online checker instead keeps this structure current —
// changelog records and scrub rescans update vertices and edges in
// place — and freezes it into an immutable UnifiedGraph snapshot when a
// check runs (the paper's "run the FaultyRank algorithm on the latest
// snapshot of the metadata graph", §VI). Freeze order is the vertex
// insertion order, so snapshots are deterministic for a given operation
// sequence.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fid.h"
#include "graph/unified_graph.h"

namespace faultyrank {

class MutableMetadataGraph {
 public:
  /// Adds or updates a scanned object.
  void upsert_vertex(const Fid& fid, ObjectKind kind);

  /// Removes an object and all its outgoing edges. Incoming references
  /// held by other objects are their owners' business (remove_edge).
  /// Returns false if the fid is unknown.
  bool remove_vertex(const Fid& fid);

  /// Adds one directed reference. The source must exist.
  void add_edge(const Fid& src, const Fid& dst, EdgeKind kind);

  /// Removes one matching reference instance; false if none exists.
  bool remove_edge(const Fid& src, const Fid& dst, EdgeKind kind);

  /// Replaces an object's kind and entire out-edge set with a fresh
  /// scan result (the scrub path). `scan_count` is how many physical
  /// inodes were observed carrying this fid — normally 1, more when an
  /// id corruption duplicates another object's identity. The frozen
  /// snapshot reproduces the multiplicity so the detector's
  /// scan_count-based Double Reference conviction works on online
  /// graphs exactly as on offline merges.
  void replace_object(const Fid& fid, ObjectKind kind,
                      std::vector<std::pair<Fid, EdgeKind>> out_edges,
                      std::uint32_t scan_count = 1);

  [[nodiscard]] bool contains(const Fid& fid) const {
    const auto it = index_.find(fid);
    return it != index_.end() && slots_[it->second].live;
  }
  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return live_vertices_;
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return edge_count_;
  }

  /// Immutable snapshot for the rank kernel + detector, interned
  /// straight from the slot array. The pool, if given, parallelizes the
  /// pairing analysis (result is identical).
  [[nodiscard]] UnifiedGraph freeze(ThreadPool* pool = nullptr) const;

  /// Monotone mutation counter: bumped by every call that changes the
  /// graph (no-op calls — removing an absent edge, say — don't count).
  /// Callers that cache artifacts derived from a freeze() (snapshots,
  /// PropagationPlans) compare generations to decide whether the cache
  /// is still current.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  struct VertexState {
    Fid fid;
    ObjectKind kind = ObjectKind::kPhantom;
    bool live = false;  // tombstoned slots keep insertion order stable
    /// Physical inodes observed carrying this fid (saturating would be
    /// pointless here; the detector only asks "> 1").
    std::uint32_t scans = 1;
    std::vector<std::pair<Fid, EdgeKind>> out;
  };

  VertexState& state_or_throw(const Fid& fid, const char* what);

  std::unordered_map<Fid, std::size_t, FidHash> index_;
  std::vector<VertexState> slots_;  // insertion order; tombstones stay
  std::size_t live_vertices_ = 0;
  std::uint64_t edge_count_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace faultyrank
