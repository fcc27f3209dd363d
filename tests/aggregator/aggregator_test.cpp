#include "aggregator/aggregator.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(AggregatorTest, MergesClusterScanIntoUnifiedGraph) {
  LustreCluster cluster = testing::make_populated_cluster(100, 11);
  const PipelineResult pipeline = scan_and_aggregate(cluster, {});
  const AggregationResult& agg = pipeline.agg;

  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  for (const auto& result : pipeline.scan.results) {
    vertices += result.graph.vertices.size();
    edges += result.graph.edges.size();
  }
  // Healthy cluster: every scanned vertex is unique, every edge kept.
  EXPECT_EQ(agg.graph.vertex_count(), vertices);
  EXPECT_EQ(agg.graph.edge_count(), edges);
}

TEST(AggregatorTest, ChargesTransferOnlyForRemotePartialGraphs) {
  LustreCluster cluster = testing::make_populated_cluster(100, 12);
  const PipelineResult pipeline = scan_and_aggregate(cluster, {});
  const AggregationResult& agg = pipeline.agg;

  std::uint64_t remote_bytes = 0;
  for (const auto& result : pipeline.scan.results) {
    if (!result.local_to_mds) remote_bytes += result.graph.wire_bytes();
  }
  EXPECT_EQ(agg.transferred_bytes, remote_bytes);
  EXPECT_GT(agg.transferred_bytes, 0u);
  EXPECT_GT(agg.sim_transfer_seconds, 0.0);
}

TEST(AggregatorTest, SlowerNetworkCostsMoreVirtualTime) {
  LustreCluster cluster = testing::make_populated_cluster(100, 13);
  PipelineConfig fast;
  fast.net = {.latency_seconds = 1e-5, .bandwidth_bytes_per_s = 10e9};
  PipelineConfig slow;
  slow.net = {.latency_seconds = 1e-3, .bandwidth_bytes_per_s = 100e6};
  EXPECT_GT(scan_and_aggregate(cluster, slow).agg.sim_transfer_seconds,
            scan_and_aggregate(cluster, fast).agg.sim_transfer_seconds);
}

TEST(AggregatorTest, RemapAssignsDenseGids) {
  LustreCluster cluster = testing::make_populated_cluster(80, 14);
  const AggregationResult agg = scan_and_aggregate(cluster, {}).agg;
  // Dense: every gid < vertex_count maps back to a unique FID.
  for (Gid v = 0; v < agg.graph.vertex_count(); ++v) {
    EXPECT_EQ(agg.graph.vertices().lookup(agg.graph.vertices().fid_of(v)), v);
  }
}

TEST(AggregatorTest, WireRoundTripPreservesGraphExactly) {
  // The aggregator decodes what the network delivered; a corrupted
  // partial graph must surface as an error, not silent data loss.
  LustreCluster cluster = testing::make_populated_cluster(50, 15);
  const ClusterScan scan = scan_cluster(cluster);
  for (const auto& result : scan.results) {
    const PartialGraph decoded =
        PartialGraph::deserialize(result.graph.serialize());
    EXPECT_EQ(decoded.vertices.size(), result.graph.vertices.size());
    EXPECT_EQ(decoded.edges.size(), result.graph.edges.size());
  }
}

}  // namespace
}  // namespace faultyrank
