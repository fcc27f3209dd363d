#include "scanner/scanner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "aggregator/aggregator.h"
#include "testing/fixtures.h"

namespace faultyrank {
namespace {

TEST(ScannerTest, MdtScanExtractsNamespaceAndLayoutEdges) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, -1});
  const Fid dir = cluster.mkdir(cluster.root(), "d");
  const Fid file = cluster.create_file(dir, "f", 2 * 64 * 1024);

  const ScanResult result = scan_mdt(cluster.mdt());
  EXPECT_TRUE(result.local_to_mds);
  EXPECT_EQ(result.inodes_scanned, 3u);  // root, d, f
  EXPECT_EQ(result.directories_visited, 2u);
  EXPECT_EQ(result.graph.vertices.size(), 3u);

  const auto has_edge = [&](Fid src, Fid dst, EdgeKind kind) {
    return std::any_of(result.graph.edges.begin(), result.graph.edges.end(),
                       [&](const FidEdge& e) {
                         return e.src == src && e.dst == dst && e.kind == kind;
                       });
  };
  EXPECT_TRUE(has_edge(cluster.root(), dir, EdgeKind::kDirent));
  EXPECT_TRUE(has_edge(dir, cluster.root(), EdgeKind::kLinkEa));
  EXPECT_TRUE(has_edge(dir, file, EdgeKind::kDirent));
  EXPECT_TRUE(has_edge(file, dir, EdgeKind::kLinkEa));
  // Two LOVEA edges to the stripe objects.
  const Inode* inode = cluster.stat(file);
  for (const auto& slot : inode->lov_ea->stripes) {
    EXPECT_TRUE(has_edge(file, slot.stripe, EdgeKind::kLovEa));
  }
}

TEST(ScannerTest, OstScanExtractsObjectPointbacks) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, -1});
  const Fid file = cluster.create_file(cluster.root(), "f", 2 * 64 * 1024);
  std::uint64_t vertices = 0;
  std::uint64_t pointbacks = 0;
  for (const auto& ost : cluster.osts()) {
    const ScanResult result = scan_ost(ost);
    EXPECT_FALSE(result.local_to_mds);
    vertices += result.graph.vertices.size();
    for (const auto& e : result.graph.edges) {
      EXPECT_EQ(e.kind, EdgeKind::kObjParent);
      EXPECT_EQ(e.dst, file);
      ++pointbacks;
    }
  }
  EXPECT_EQ(vertices, 2u);
  EXPECT_EQ(pointbacks, 2u);
}

TEST(ScannerTest, HealthyClusterScansToFullyPairedGraph) {
  LustreCluster cluster = testing::make_populated_cluster(150, 3);
  const AggregationResult agg = scan_and_aggregate(cluster, {}).agg;
  EXPECT_TRUE(agg.graph.unpaired_edges().empty());
  // Every scanned vertex is real (no phantoms in a healthy FS).
  for (Gid v = 0; v < agg.graph.vertex_count(); ++v) {
    EXPECT_TRUE(agg.graph.vertices().is_scanned(v));
  }
}

TEST(ScannerTest, ScanSeesRawCorruptionNotOiState) {
  LustreCluster cluster(2, StripePolicy{64 * 1024, 1});
  const Fid file = cluster.create_file(cluster.root(), "f", 1000);
  // Corrupt the file's LMA raw; the OI still maps the old fid.
  Inode* inode = cluster.mdt().image.find_by_fid(file);
  inode->lma_fid = Fid{0xbad, 1, 0};
  const ScanResult result = scan_mdt(cluster.mdt());
  const bool saw_corrupt = std::any_of(
      result.graph.vertices.begin(), result.graph.vertices.end(),
      [](const VertexRecord& v) { return v.fid == Fid{0xbad, 1, 0}; });
  const bool saw_original = std::any_of(
      result.graph.vertices.begin(), result.graph.vertices.end(),
      [&](const VertexRecord& v) { return v.fid == file; });
  EXPECT_TRUE(saw_corrupt);
  EXPECT_FALSE(saw_original);
}

TEST(ScannerTest, ClusterScanParallelMatchesSerial) {
  LustreCluster cluster = testing::make_populated_cluster(120, 9);
  const ClusterScan serial = scan_cluster(cluster, nullptr);
  ThreadPool pool(4);
  const ClusterScan parallel = scan_cluster(cluster, &pool);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  EXPECT_EQ(serial.inodes_scanned, parallel.inodes_scanned);
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].graph.server,
              parallel.results[i].graph.server);
    EXPECT_EQ(serial.results[i].graph.edges.size(),
              parallel.results[i].graph.edges.size());
    EXPECT_EQ(serial.results[i].graph.vertices.size(),
              parallel.results[i].graph.vertices.size());
  }
}

TEST(ScannerTest, SimTimeReflectsDiskModel) {
  LustreCluster cluster = testing::make_populated_cluster(100, 5);
  const DiskModel slow{.seek_seconds = 0.1, .bandwidth_bytes_per_s = 1e6};
  const DiskModel fast = DiskModel::ssd();
  const ScanResult slow_scan = scan_mdt(cluster.mdt(), slow);
  const ScanResult fast_scan = scan_mdt(cluster.mdt(), fast);
  EXPECT_GT(slow_scan.sim_seconds, fast_scan.sim_seconds);
  // Identical extraction regardless of the device model.
  EXPECT_EQ(slow_scan.graph.edges.size(), fast_scan.graph.edges.size());
}

TEST(ScannerTest, ClusterSimTimeIsMaxOverServers) {
  LustreCluster cluster = testing::make_populated_cluster(100, 6);
  const ClusterScan scan = scan_cluster(cluster);
  double max_server = 0.0;
  for (const auto& result : scan.results) {
    max_server = std::max(max_server, result.sim_seconds);
  }
  EXPECT_DOUBLE_EQ(scan.sim_seconds, max_server);
}

}  // namespace
}  // namespace faultyrank
