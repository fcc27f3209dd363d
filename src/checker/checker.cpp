#include "checker/checker.h"

#include <algorithm>

#include "common/timer.h"
#include "pfs/persistence.h"

namespace faultyrank {

namespace {

/// run_checker's backend: every check is a full scan → aggregate →
/// rank → detect pass over the cluster.
class OfflineBackend final : public RepairExecutor {
 public:
  OfflineBackend(LustreCluster& cluster, const CheckerConfig& config)
      : RepairExecutor(cluster),
        config_(config),
        checkpoint_path_(config.checkpoint_path) {}

  CheckerResult check();

  RepairOutcome apply(const RepairAction& action) override {
    if (config_.capture_undo && undo_image.empty()) {
      undo_image = serialize_cluster(cluster_);
    }
    return RepairExecutor::apply(action);
  }

  /// Snapshot taken before the first write (capture_undo).
  std::vector<std::uint8_t> undo_image;

 private:
  const CheckerConfig& config_;
  std::string checkpoint_path_;
};

CheckerResult OfflineBackend::check() {
  CheckerResult result;

  // Streaming pipeline: each finished scan is decoded while the other
  // scans run. Interning is serial; the CSR and pairing passes of the
  // merge use the pool. Graph and sim numbers are identical for every
  // pool size. Degraded mode: with a fault schedule, a crashed server
  // shrinks coverage rather than aborting the check.
  PipelineConfig pipeline_config;
  pipeline_config.pool = config_.pool;
  pipeline_config.mdt_disk = config_.mdt_disk;
  pipeline_config.ost_disk = config_.ost_disk;
  pipeline_config.net = config_.net;
  pipeline_config.faults = config_.faults;
  pipeline_config.retry = config_.retry;
  pipeline_config.checkpoint_path = checkpoint_path_;
  pipeline_config.checkpoint_epoch = config_.checkpoint_epoch;
  // Only the first check may resume: repairs change the cluster, and a
  // re-check resumed from the pre-repair checkpoint would verify stale
  // state.
  checkpoint_path_.clear();
  const PipelineResult pipeline = scan_and_aggregate(cluster_, pipeline_config);
  const ClusterScan& scan = pipeline.scan;
  result.coverage = pipeline.agg.coverage;
  result.failed_servers = pipeline.failed_servers;
  result.servers_resumed = pipeline.servers_resumed;
  result.checkpoint_discarded = pipeline.checkpoint_discarded;
  const AggregationResult& aggregated = pipeline.agg;
  result.timings.t_scan_sim = scan.sim_seconds;
  result.timings.t_scan_wall = scan.wall_seconds;
  result.inodes_scanned = scan.inodes_scanned;

  result.timings.t_graph_sim =
      std::max(0.0, aggregated.sim_pipeline_seconds - scan.sim_seconds);
  result.timings.t_graph_wall = aggregated.wall_seconds;
  result.graph_bytes = aggregated.graph.bytes();

  WallTimer fr_timer;
  rank_and_detect(aggregated.graph, config_, cluster_.root(),
                  aggregated.coverage, result);
  result.timings.t_fr_wall = fr_timer.seconds();
  return result;
}

/// repair_until_clean's backend. Raw corruption and raw repairs both
/// bypass the changelog, so each check scrubs every inode before
/// judging.
class OnlineBackend final : public RepairExecutor {
 public:
  OnlineBackend(LustreCluster& cluster, OnlineChecker& checker)
      : RepairExecutor(cluster), checker_(checker) {}

  OnlineCheckResult check() {
    checker_.catch_up();
    checker_.full_scrub();
    return checker_.check();
  }

 private:
  OnlineChecker& checker_;
};

}  // namespace

CheckerResult run_checker(LustreCluster& cluster, const CheckerConfig& config) {
  OfflineBackend backend(cluster, config);
  CheckerResult result = check_and_repair(backend, config);
  result.undo_image = std::move(backend.undo_image);
  return result;
}

OnlineCheckResult repair_until_clean(LustreCluster& cluster,
                                     OnlineChecker& checker,
                                     std::size_t max_rounds) {
  OnlineBackend backend(cluster, checker);
  CheckConfig config;
  config.apply_repairs = config.verify_after_repair = true;
  return check_and_repair(backend, config, max_rounds);
}

}  // namespace faultyrank
