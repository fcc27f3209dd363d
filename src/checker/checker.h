// End-to-end FaultyRank checking of a Lustre cluster (paper Fig. 6):
// scan every server in parallel → aggregate partial graphs on the MDS →
// run the FaultyRank iterations → detect + attribute inconsistencies →
// (optionally) apply the recommended repairs and verify by re-scanning.
// Both entry points are backends of the one check_and_repair driver
// (core/check_driver.h): run_checker re-scans the cluster for every
// check; repair_until_clean re-checks through an OnlineChecker.
//
// The timing breakdown matches Table VI's three columns:
//   T_scan  — parallel per-server metadata scanning
//   T_graph — transfer + merge + FID remap + CSR build
//   T_FR    — FaultyRank iterations + detection
#pragma once

#include <cstdint>

#include "aggregator/aggregator.h"
#include "checker/repair_executor.h"
#include "core/check_driver.h"
#include "online/online_checker.h"
#include "pfs/cluster.h"

namespace faultyrank {

/// The shared CheckConfig (rank, threshold, pool, repair and verify
/// switches) plus what only a Lustre scan needs.
struct CheckerConfig : CheckConfig {
  DiskModel mdt_disk = DiskModel::ssd();
  DiskModel ost_disk = DiskModel::hdd();
  NetModel net;
  /// Capture a full pre-repair snapshot into CheckerResult::undo_image
  /// before mutating anything (e2fsck-undo-file style); restore it with
  /// deserialize_cluster to roll every repair back.
  bool capture_undo = false;
  /// Operational fault schedule for the scan phase; nullptr scans
  /// fault-free. With faults, the check runs in degraded mode: a
  /// crashed server reduces coverage instead of aborting, and findings
  /// whose evidence was lost come back unverifiable.
  OpFaultSchedule* faults = nullptr;
  RetryPolicy retry;
  /// Non-empty: checkpoint completed scans here and resume from an
  /// existing checkpoint (see PipelineConfig). Only the first check
  /// uses it: a re-check after repairs must not resume pre-repair scans.
  std::string checkpoint_path;
  /// Cluster-content fingerprint for checkpoint staleness detection
  /// (PipelineConfig::checkpoint_epoch): a checkpoint written under a
  /// different epoch is discarded instead of resumed.
  std::uint64_t checkpoint_epoch = 0;
};

struct CheckerTimings {
  double t_scan_sim = 0.0;
  double t_scan_wall = 0.0;
  /// Virtual transfer time that could NOT be hidden behind the scans:
  /// the pipelined scan→transfer finish time minus the slowest scanner
  /// (transfers stream to the MDS as each scanner completes, so most of
  /// the wire time overlaps scanning — DESIGN.md §7).
  double t_graph_sim = 0.0;
  double t_graph_wall = 0.0;  ///< merge + remap + CSR build (measured)
  double t_fr_wall = 0.0;     ///< iterations + detection (measured)

  /// End-to-end virtual seconds: virtual I/O legs plus measured compute
  /// (compute is real on both the paper's testbed and here).
  [[nodiscard]] double total_sim() const noexcept {
    return t_scan_sim + t_graph_sim + t_graph_wall + t_fr_wall;
  }
  [[nodiscard]] double total_wall() const noexcept {
    return t_scan_wall + t_graph_wall + t_fr_wall;
  }
};

/// The shared CheckResult plus the first scan's timings and coverage
/// (a re-check is not timed into the Table VI breakdown).
struct CheckerResult : CheckResult {
  CheckerTimings timings;
  std::uint64_t inodes_scanned = 0;
  std::uint64_t graph_bytes = 0;

  /// Pre-repair snapshot (empty unless capture_undo was set and a
  /// repair was about to write).
  std::vector<std::uint8_t> undo_image;

  /// Scan coverage this check actually achieved (1.0 = every server).
  CoverageInfo coverage;
  /// Servers whose scan failed (crash or deadline), in slot order.
  std::vector<std::string> failed_servers;
  /// Slots restored from the checkpoint instead of rescanned.
  std::size_t servers_resumed = 0;
  /// An on-disk checkpoint was ignored because its epoch did not match
  /// (the cluster mutated since it was written).
  bool checkpoint_discarded = false;
};

/// Runs the complete pipeline against `cluster`: one repair round,
/// verified by a full re-scan when verify_after_repair is set.
[[nodiscard]] CheckerResult run_checker(LustreCluster& cluster,
                                        const CheckerConfig& config = {});

/// Repair-convergence oracle (Table III's claim: every planted fault is
/// repairable and the repaired filesystem passes a fresh check). Each
/// check is catch_up + full_scrub + check on a bootstrapped `checker`;
/// verified_consistent is true iff it checked clean within the budget.
[[nodiscard]] OnlineCheckResult repair_until_clean(LustreCluster& cluster,
                                                   OnlineChecker& checker,
                                                   std::size_t max_rounds = 4);

}  // namespace faultyrank
