#include "online/online_checker.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/timer.h"

namespace faultyrank {

namespace {

/// Extracts the out-edges a scanner would emit for this inode.
std::vector<std::pair<Fid, EdgeKind>> edges_of(const Inode& inode) {
  std::vector<std::pair<Fid, EdgeKind>> out;
  switch (inode.type) {
    case InodeType::kDirectory:
      for (const auto& entry : inode.dirents) {
        out.emplace_back(entry.fid, EdgeKind::kDirent);
      }
      for (const auto& link : inode.link_ea) {
        out.emplace_back(link.parent, EdgeKind::kLinkEa);
      }
      break;
    case InodeType::kRegular:
      for (const auto& link : inode.link_ea) {
        out.emplace_back(link.parent, EdgeKind::kLinkEa);
      }
      if (inode.lov_ea.has_value()) {
        for (const auto& slot : inode.lov_ea->stripes) {
          out.emplace_back(slot.stripe, EdgeKind::kLovEa);
        }
      }
      break;
    case InodeType::kOstObject:
      if (inode.filter_fid.has_value()) {
        out.emplace_back(inode.filter_fid->parent, EdgeKind::kObjParent);
      }
      break;
  }
  return out;
}

ObjectKind kind_of(const Inode& inode) {
  switch (inode.type) {
    case InodeType::kDirectory: return ObjectKind::kDirectory;
    case InodeType::kRegular: return ObjectKind::kFile;
    case InodeType::kOstObject: return ObjectKind::kStripeObject;
  }
  return ObjectKind::kPhantom;
}

}  // namespace

OnlineChecker::OnlineChecker(LustreCluster& cluster,
                             OnlineCheckerConfig config)
    : cluster_(cluster), config_(config) {}

void OnlineChecker::bootstrap() {
  // The fresh graph restarts its generation counter, so a stale cache
  // could collide with a new generation value — drop the plan, which
  // forces the next check to rebuild. The old snapshot stays until then
  // as the FID map for the warm-start ranks.
  plan_.reset();
  graph_ = MutableMetadataGraph();
  claimants_.clear();
  last_seen_.assign(server_count(), {});
  for (std::size_t server = 0; server < server_count(); ++server) {
    const LdiskfsImage& image = image_of(server);
    auto& seen = last_seen_[server];
    seen.assign(image.inode_slots(), kNullFid);
    image.for_each_inode([&](const Inode& inode) {
      add_claim(inode.lma_fid, server, inode.ino);
      refresh_identity(inode.lma_fid);
      seen[inode.ino - 1] = inode.lma_fid;
    });
  }
  if (cluster_.changelog() != nullptr) {
    cursor_ = cluster_.changelog()->next_index();
  }
  scrub_server_ = 0;
  scrub_ino_ = 1;
}

void OnlineChecker::ensure_vertex(const Fid& fid, ObjectKind kind) {
  if (!graph_.contains(fid)) graph_.upsert_vertex(fid, kind);
}

void OnlineChecker::apply(const ChangeRecord& record) {
  // A record's endpoints may be unknown to the graph: scrubbing retires
  // a vertex whose on-disk identity was corrupted, and a later repair
  // restores the identity through the raw image (bypassing the
  // changelog), so logical ops on it reference a fid we dropped.
  // Re-materialize missing endpoints instead of throwing; the vertex
  // starts bare and the scrubber reconciles its full edge set on the
  // next pass over that slot.
  switch (record.op) {
    case ChangeOp::kMkdir:
      ensure_vertex(record.parent, ObjectKind::kDirectory);
      graph_.upsert_vertex(record.target, ObjectKind::kDirectory);
      graph_.add_edge(record.target, record.parent, EdgeKind::kLinkEa);
      graph_.add_edge(record.parent, record.target, EdgeKind::kDirent);
      break;
    case ChangeOp::kCreateFile:
      ensure_vertex(record.parent, ObjectKind::kDirectory);
      graph_.upsert_vertex(record.target, ObjectKind::kFile);
      graph_.add_edge(record.target, record.parent, EdgeKind::kLinkEa);
      graph_.add_edge(record.parent, record.target, EdgeKind::kDirent);
      for (const LovEaEntry& slot : record.stripes) {
        graph_.upsert_vertex(slot.stripe, ObjectKind::kStripeObject);
        graph_.add_edge(record.target, slot.stripe, EdgeKind::kLovEa);
        graph_.add_edge(slot.stripe, record.target, EdgeKind::kObjParent);
      }
      break;
    case ChangeOp::kHardLink:
      ensure_vertex(record.parent, ObjectKind::kDirectory);
      ensure_vertex(record.target, ObjectKind::kFile);
      graph_.add_edge(record.parent, record.target, EdgeKind::kDirent);
      graph_.add_edge(record.target, record.parent, EdgeKind::kLinkEa);
      break;
    case ChangeOp::kUnlink:
      graph_.remove_edge(record.parent, record.target, EdgeKind::kDirent);
      if (!record.removes_object) {
        // One name of a hard-linked file went away; the object and its
        // other links survive.
        graph_.remove_edge(record.target, record.parent, EdgeKind::kLinkEa);
        break;
      }
      for (const LovEaEntry& slot : record.stripes) {
        graph_.remove_vertex(slot.stripe);
      }
      graph_.remove_vertex(record.target);
      break;
    case ChangeOp::kRename:
      ensure_vertex(record.src_parent, ObjectKind::kDirectory);
      ensure_vertex(record.parent, ObjectKind::kDirectory);
      ensure_vertex(record.target, record.type == InodeType::kDirectory
                                       ? ObjectKind::kDirectory
                                       : ObjectKind::kFile);
      graph_.remove_edge(record.src_parent, record.target, EdgeKind::kDirent);
      graph_.remove_edge(record.target, record.src_parent, EdgeKind::kLinkEa);
      graph_.add_edge(record.parent, record.target, EdgeKind::kDirent);
      graph_.add_edge(record.target, record.parent, EdgeKind::kLinkEa);
      break;
  }
}

std::size_t OnlineChecker::catch_up() {
  const ChangeLog* log = cluster_.changelog();
  if (log == nullptr) return 0;
  const auto records = log->read_from(cursor_);
  for (const ChangeRecord& record : records) {
    apply(record);
    cursor_ = record.index + 1;
  }
  return records.size();
}

void OnlineChecker::add_claim(const Fid& fid, std::size_t server,
                              std::uint64_t ino) {
  auto& claims = claimants_[fid];
  for (const SlotRef& claim : claims) {
    if (claim.server == server && claim.ino == ino) return;
  }
  claims.push_back({server, ino});
}

void OnlineChecker::drop_claim(const Fid& fid, std::size_t server,
                               std::uint64_t ino) {
  const auto it = claimants_.find(fid);
  if (it == claimants_.end()) return;
  auto& claims = it->second;
  for (auto claim = claims.begin(); claim != claims.end(); ++claim) {
    if (claim->server == server && claim->ino == ino) {
      claims.erase(claim);
      break;
    }
  }
}

void OnlineChecker::refresh_identity(const Fid& fid) {
  const auto it = claimants_.find(fid);
  if (it != claimants_.end()) {
    auto& claims = it->second;
    std::vector<std::pair<Fid, EdgeKind>> merged;
    ObjectKind kind = ObjectKind::kPhantom;
    bool have_kind = false;
    for (auto claim = claims.begin(); claim != claims.end();) {
      const Inode* inode = image_of(claim->server).find(claim->ino);
      if (inode == nullptr || inode->lma_fid != fid) {
        // The slot moved on since this claim was recorded; prune it.
        claim = claims.erase(claim);
        continue;
      }
      if (!have_kind) {
        kind = kind_of(*inode);
        have_kind = true;
      }
      auto edges = edges_of(*inode);
      merged.insert(merged.end(), edges.begin(), edges.end());
      ++claim;
    }
    if (!claims.empty()) {
      graph_.replace_object(fid, kind, std::move(merged),
                            static_cast<std::uint32_t>(claims.size()));
      return;
    }
    claimants_.erase(it);
  }
  graph_.remove_vertex(fid);
}

bool OnlineChecker::scrub_slot(std::size_t server, std::uint64_t ino) {
  const LdiskfsImage& image = image_of(server);
  auto& seen = last_seen_[server];
  if (seen.size() < image.inode_slots()) {
    seen.resize(image.inode_slots(), kNullFid);
  }
  const Inode* inode = image.find(ino);
  const Fid previous = seen[ino - 1];
  if (inode == nullptr) {
    // Slot is free now; drop this slot's claim on whatever we believed
    // lived here (the identity survives if another slot still claims
    // it — e.g. the genuine twin of a duplicated id).
    if (!previous.is_null()) {
      drop_claim(previous, server, ino);
      refresh_identity(previous);
      seen[ino - 1] = kNullFid;
    }
    return false;
  }
  if (!previous.is_null() && previous != inode->lma_fid) {
    // The id changed under us (corruption or repair): retire this
    // slot's claim on the stale identity.
    drop_claim(previous, server, ino);
    refresh_identity(previous);
  }
  add_claim(inode->lma_fid, server, ino);
  refresh_identity(inode->lma_fid);
  seen[ino - 1] = inode->lma_fid;
  return true;
}

std::size_t OnlineChecker::scrub_step() {
  std::size_t refreshed = 0;
  std::size_t visited = 0;
  const std::size_t servers = server_count();
  // Budget counts slots visited, so a step's cost is bounded even over
  // sparsely-used tables.
  while (visited < config_.scrub_batch) {
    const LdiskfsImage& image = image_of(scrub_server_);
    if (scrub_ino_ > image.inode_slots()) {
      scrub_server_ = (scrub_server_ + 1) % servers;
      scrub_ino_ = 1;
      ++visited;  // guard against empty images spinning forever
      continue;
    }
    refreshed += scrub_slot(scrub_server_, scrub_ino_) ? 1 : 0;
    ++scrub_ino_;
    ++visited;
  }
  return refreshed;
}

void OnlineChecker::full_scrub() {
  for (std::size_t server = 0; server < server_count(); ++server) {
    const std::uint64_t slots = image_of(server).inode_slots();
    for (std::uint64_t ino = 1; ino <= slots; ++ino) {
      scrub_slot(server, ino);
    }
  }
}

OnlineCheckResult OnlineChecker::check() {
  OnlineCheckResult result;
  WallTimer freeze_timer;
  // Re-checks of an unmutated graph reuse the previous snapshot and
  // PropagationPlan — the common cadence for an online checker polling
  // a quiet filesystem, where freeze + plan build dominate the check.
  result.plan_reused = snapshot_.has_value() && plan_.has_value() &&
                       snapshot_generation_ == graph_.generation();
  // The previous snapshot's vertices, kept past its release to map the
  // warm-start ranks onto the new GIDs.
  VertexTable previous;
  if (!result.plan_reused) {
    // Release the old plan (it borrows the snapshot) and snapshot before
    // building their successors, so the two never coexist.
    plan_.reset();
    if (snapshot_) previous = std::move(*snapshot_).take_vertices();
    snapshot_.reset();
    snapshot_.emplace(graph_.freeze(config_.pool));
    plan_.emplace(PropagationPlan::build(*snapshot_,
                                         config_.rank.unpaired_weight,
                                         config_.pool));
    snapshot_generation_ = graph_.generation();
#if defined(__GLIBC__)
    // Hand the freed snapshot and plan buffers back to the OS; glibc
    // otherwise keeps them and RSS creeps up check after check while the
    // live heap stays flat. On perfbench's online_churn (300k vertices,
    // ~45 checks, 4-core Xeon VM, glibc 2.36) peak RSS read 466 MB
    // without this call and 295 MB with it.
    malloc_trim(0);
#endif
  }
  const UnifiedGraph& snapshot = *snapshot_;
  result.freeze_wall_seconds = freeze_timer.seconds();

  WallTimer rank_timer;
  FaultyRankConfig rank_config = config_.rank;
  std::vector<double> warm_id;
  std::vector<double> warm_prop;
  if (config_.warm_start && !last_id_rank_.empty()) {
    if (result.plan_reused) {
      // Same snapshot, same GIDs: the previous ranks seed as they are.
      rank_config.initial_id_ranks = &last_id_rank_;
      rank_config.initial_prop_ranks = &last_prop_rank_;
    } else {
      const std::size_t n = snapshot.vertex_count();
      warm_id.assign(n, rank_config.initial_rank);
      warm_prop.assign(n, rank_config.initial_rank);
      for (Gid v = 0; v < n; ++v) {
        const Gid old = previous.lookup(snapshot.vertices().fid_of(v));
        if (old != kInvalidGid) {
          warm_id[v] = last_id_rank_[old];
          warm_prop[v] = last_prop_rank_[old];
        }
      }
      rank_config.initial_id_ranks = &warm_id;
      rank_config.initial_prop_ranks = &warm_prop;
    }
  }
  result.ranks = run_faultyrank(snapshot, *plan_, rank_config, config_.pool);
  if (config_.warm_start) {
    last_id_rank_ = result.ranks.id_rank;
    last_prop_rank_ = result.ranks.prop_rank;
  }
  DetectorConfig detector_config;
  detector_config.threshold = config_.detection_threshold;
  detector_config.root = cluster_.root();
  result.report =
      detect_inconsistencies(snapshot, result.ranks, detector_config);
  result.rank_wall_seconds = rank_timer.seconds();

  result.vertices = snapshot.vertex_count();
  result.edges = snapshot.edge_count();
  result.unpaired_edges = snapshot.unpaired_edges().size();
  return result;
}

}  // namespace faultyrank
