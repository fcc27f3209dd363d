// The pipeline's failure paths, run with no pool, a 1-worker pool and a
// 4-worker pool: strict-mode PipelineError, degraded coverage, the
// quarantine flow, an unwritable checkpoint, and the interrupt hook
// followed by a resume. On a pool of more than one worker the interrupt
// stops the stream while scanners are still in flight; the resumed
// ranks must still equal an uninterrupted run's bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "common/thread_pool.h"
#include "core/faultyrank.h"
#include "pfs/persistence.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

/// Parameter: pool size, 0 for no pool.
class PipelineFailurePathTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (GetParam() > 0) pool_.emplace(GetParam());
  }

  [[nodiscard]] PipelineConfig config() {
    PipelineConfig config;
    config.pool = pool_ ? &*pool_ : nullptr;
    return config;
  }

  [[nodiscard]] std::string temp_path(const char* name) const {
    return ::testing::TempDir() + "/" + name + "_" +
           std::to_string(GetParam()) + ".frcp";
  }

 private:
  std::optional<ThreadPool> pool_;
};

void expect_same_ranks(const UnifiedGraph& expected,
                       const UnifiedGraph& actual) {
  const FaultyRankResult want = run_faultyrank(expected);
  const FaultyRankResult got = run_faultyrank(actual);
  ASSERT_EQ(got.id_rank.size(), want.id_rank.size());
  for (std::size_t v = 0; v < want.id_rank.size(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.id_rank[v]),
              std::bit_cast<std::uint64_t>(want.id_rank[v]))
        << "gid " << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.prop_rank[v]),
              std::bit_cast<std::uint64_t>(want.prop_rank[v]))
        << "gid " << v;
  }
}

TEST_P(PipelineFailurePathTest, StrictModeNamesEveryFailedServer) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 31, 4);
  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss0"] = 4;
  fault_config.crash_after_reads["oss2"] = 9;
  OpFaultSchedule faults(fault_config);

  PipelineConfig strict = config();
  strict.faults = &faults;
  strict.allow_degraded = false;
  try {
    (void)scan_and_aggregate(cluster, strict);
    FAIL() << "strict mode must throw when servers fail";
  } catch (const PipelineError& error) {
    EXPECT_EQ(error.failed_servers(),
              (std::vector<std::string>{"oss0", "oss2"}));
  }
}

TEST_P(PipelineFailurePathTest, CrashedServerDegradesCoverage) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 32, 4);
  const PipelineResult full = scan_and_aggregate(cluster, config());

  OpFaultConfig fault_config;
  fault_config.crash_after_reads["oss1"] = 6;
  OpFaultSchedule faults(fault_config);
  PipelineConfig degraded_config = config();
  degraded_config.faults = &faults;
  const PipelineResult degraded = scan_and_aggregate(cluster, degraded_config);

  EXPECT_DOUBLE_EQ(degraded.agg.coverage.coverage, 4.0 / 5.0);
  EXPECT_EQ(degraded.failed_servers, std::vector<std::string>{"oss1"});
  EXPECT_EQ(degraded.agg.coverage.lost_sequences,
            std::vector<std::uint64_t>{cluster.osts()[1].fids.seq()});
  EXPECT_EQ(degraded.scan.results[2].status, ScanStatus::kFailed);
  const std::uint64_t lost_edges =
      scan_ost(cluster.osts()[1]).graph.edges.size();
  EXPECT_EQ(degraded.agg.graph.edge_count() + lost_edges,
            full.agg.graph.edge_count());
}

TEST_P(PipelineFailurePathTest, QuarantinedInodesFlowIntoCoverage) {
  const LustreCluster cluster = testing::make_populated_cluster(150, 33, 4);
  OpFaultConfig fault_config;
  fault_config.transient_eio_rate = 0.2;
  fault_config.max_fault_attempts = 2;
  OpFaultSchedule faults(fault_config);
  PipelineConfig quarantining = config();
  quarantining.faults = &faults;
  quarantining.retry.max_attempts = 1;

  const PipelineResult result = scan_and_aggregate(cluster, quarantining);
  EXPECT_EQ(result.agg.coverage.coverage, 1.0);
  EXPECT_TRUE(result.failed_servers.empty());
  std::size_t quarantined = 0;
  for (const ScanResult& scan : result.scan.results) {
    quarantined += scan.quarantined.size();
  }
  EXPECT_GT(quarantined, 0u);
  EXPECT_EQ(result.agg.coverage.quarantined.size(), quarantined);
  for (const Fid& fid : result.agg.coverage.quarantined) {
    EXPECT_TRUE(result.agg.coverage.fid_lost(fid));
  }
}

TEST_P(PipelineFailurePathTest, UnwritableCheckpointThrowsWithoutHanging) {
  const LustreCluster cluster = testing::make_populated_cluster(80, 34, 4);
  PipelineConfig checkpointed = config();
  checkpointed.checkpoint_path =
      ::testing::TempDir() + "/no_such_dir_for_checkpoints/ckpt.frcp";
  EXPECT_THROW((void)scan_and_aggregate(cluster, checkpointed),
               PersistenceError);
}

TEST_P(PipelineFailurePathTest, InterruptThenResumeReproducesRanksBitForBit) {
  // Eight OSTs: more servers than workers, so the interrupt lands while
  // scanners are still running or queued.
  const LustreCluster cluster = testing::make_populated_cluster(200, 35, 8);
  OpFaultConfig fault_config;
  fault_config.seed = 35;
  fault_config.transient_eio_rate = 0.1;
  fault_config.latency_spike_rate = 0.05;

  PipelineResult reference;
  {
    OpFaultSchedule faults(fault_config);
    PipelineConfig uninterrupted = config();
    uninterrupted.faults = &faults;
    reference = scan_and_aggregate(cluster, uninterrupted);
  }

  for (const std::size_t stop_after : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(stop_after);
    const std::string path = temp_path("pipeline_interrupt");
    std::filesystem::remove(path);
    {
      OpFaultSchedule faults(fault_config);
      PipelineConfig interrupted = config();
      interrupted.faults = &faults;
      interrupted.checkpoint_path = path;
      interrupted.interrupt_after_servers = stop_after;
      EXPECT_THROW((void)scan_and_aggregate(cluster, interrupted),
                   PipelineInterrupted);
    }
    ASSERT_TRUE(std::filesystem::exists(path));

    PipelineResult resumed;
    {
      OpFaultSchedule faults(fault_config);
      PipelineConfig resuming = config();
      resuming.faults = &faults;
      resuming.checkpoint_path = path;
      resumed = scan_and_aggregate(cluster, resuming);
    }
    EXPECT_EQ(resumed.servers_resumed, stop_after);
    EXPECT_TRUE(resumed.failed_servers.empty());
    EXPECT_EQ(resumed.agg.transferred_bytes, reference.agg.transferred_bytes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed.scan.sim_seconds),
              std::bit_cast<std::uint64_t>(reference.scan.sim_seconds));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(resumed.agg.sim_pipeline_seconds),
        std::bit_cast<std::uint64_t>(reference.agg.sim_pipeline_seconds));
    ASSERT_EQ(resumed.agg.graph.vertex_count(),
              reference.agg.graph.vertex_count());
    ASSERT_EQ(resumed.agg.graph.edge_count(), reference.agg.graph.edge_count());
    expect_same_ranks(reference.agg.graph, resumed.agg.graph);
    std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, PipelineFailurePathTest,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return info.param == 0
                                      ? std::string("NoPool")
                                      : "Pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace faultyrank
