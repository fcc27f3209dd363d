// Generality (paper §VI): the unchanged FaultyRank core — rank kernel,
// detector, categories, repair planning — operating on the BeeGFS
// substrate through its own scanner and repair executor, driven by the
// same check_and_repair loop as Lustre.
#include "beegfs/bee_checker.h"

#include <gtest/gtest.h>

#include <bit>
#include <string_view>

#include "beegfs/bee_scanner.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/report.h"
#include "graph/unified_graph.h"

namespace faultyrank {
namespace {

/// A small populated BeeGFS cluster.
BeeCluster make_cluster(std::uint64_t seed, std::size_t files = 120) {
  BeeCluster cluster(4);
  Rng rng(seed);
  std::vector<std::string> dirs = {cluster.root()};
  for (std::size_t i = 0; i < files / 8; ++i) {
    dirs.push_back(
        cluster.mkdir(dirs[rng.below(dirs.size())], "d" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < files; ++i) {
    cluster.create_file(dirs[rng.below(dirs.size())],
                        "f" + std::to_string(i),
                        64 * 1024 + rng.below(3u << 20));
  }
  return cluster;
}

UnifiedGraph scan_to_graph(const BeeCluster& cluster) {
  const auto scans = scan_bee_cluster(cluster);
  std::vector<PartialGraph> partials;
  for (const auto& scan : scans) partials.push_back(scan.graph);
  return UnifiedGraph::aggregate(partials);
}

TEST(BeeScannerTest, HealthyClusterScansFullyPaired) {
  const BeeCluster cluster = make_cluster(81);
  const UnifiedGraph graph = scan_to_graph(cluster);
  EXPECT_GT(graph.vertex_count(), 0u);
  EXPECT_TRUE(graph.unpaired_edges().empty());
}

TEST(BeeScannerTest, VertexCountMatchesEntitiesPlusChunks) {
  const BeeCluster cluster = make_cluster(82);
  const UnifiedGraph graph = scan_to_graph(cluster);
  EXPECT_EQ(graph.vertex_count(),
            cluster.meta_inodes_used() + cluster.total_chunks());
}

TEST(BeeCheckerTest, HealthyClusterChecksConsistent) {
  BeeCluster cluster = make_cluster(83);
  const CheckResult result = run_checker(cluster);
  EXPECT_TRUE(result.report.consistent());
  EXPECT_EQ(result.unpaired_edges, 0u);
}

TEST(BeeCheckerTest, WipedDentriesDetectedAndRepaired) {
  // The S3 analogue: a directory's dentry files vanish.
  BeeCluster cluster = make_cluster(84);
  const std::string dir = cluster.mkdir(cluster.root(), "victim");
  const std::string f1 = cluster.create_file(dir, "a", 1 << 20);
  const std::string f2 = cluster.create_file(dir, "b", 1 << 20);
  cluster.meta().dentries[dir].clear();

  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(cluster.meta().dentries[dir].size(), 2u);
  EXPECT_EQ(cluster.meta().dentries[dir]["a"], f1);
  EXPECT_EQ(cluster.meta().dentries[dir]["b"], f2);
}

TEST(BeeCheckerTest, CorruptedOriginXattrDetectedAndRepaired) {
  // The S7 analogue: a chunk's origin xattr goes bogus.
  BeeCluster cluster = make_cluster(85);
  const std::string file = cluster.create_file(cluster.root(), "x", 1 << 20);
  const std::uint32_t target = cluster.meta().find(file)->pattern->targets[0];
  for (BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      chunk.xattr_origin = "ffff-9999-bee";
      break;
    }
  }

  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  for (const BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      EXPECT_EQ(chunk.xattr_origin, file);
    }
  }
}

TEST(BeeCheckerTest, RenamedChunkFileDetectedAndReidentified) {
  // The S2 analogue: a chunk file is renamed — its identity changes
  // while its origin xattr still points home.
  BeeCluster cluster = make_cluster(86);
  const std::string file = cluster.create_file(cluster.root(), "y", 1 << 20);
  const std::uint32_t target = cluster.meta().find(file)->pattern->targets[0];
  for (BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) {
      chunk.name = entry_id_from_fid(Fid{kBeeMetaSeq, 0x7fffffff, 0});
      break;
    }
  }

  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckResult result = run_checker(cluster, config);
  EXPECT_FALSE(result.report.consistent());
  EXPECT_TRUE(result.verified_consistent);
  bool renamed_back = false;
  for (const BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) renamed_back = true;
  }
  EXPECT_TRUE(renamed_back);
}

TEST(BeeCheckerTest, MissingParentXattrRepairedFromDentry) {
  BeeCluster cluster = make_cluster(87);
  const std::string dir = cluster.mkdir(cluster.root(), "pdir");
  const std::string file = cluster.create_file(dir, "child", 1 << 20);
  cluster.meta().find(file)->parent_entry_id.clear();

  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckResult result = run_checker(cluster, config);
  EXPECT_TRUE(result.verified_consistent);
  EXPECT_EQ(cluster.meta().find(file)->parent_entry_id, dir);
}

TEST(BeeCheckerTest, RepairsAreIdempotent) {
  BeeCluster cluster = make_cluster(88);
  const std::string file = cluster.create_file(cluster.root(), "z", 1 << 20);
  cluster.meta().find(file)->parent_entry_id = "dead-beef-bee";

  CheckConfig config;
  config.apply_repairs = true;
  config.verify_after_repair = true;
  const CheckResult first = run_checker(cluster, config);
  EXPECT_TRUE(first.verified_consistent);
  const CheckResult second = run_checker(cluster, config);
  EXPECT_TRUE(second.report.consistent());
  EXPECT_EQ(second.repairs_applied, 0u);
}


/// 64-bit FNV-1a over `bytes`, continued from `hash`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a over the bit patterns of a result's rank vectors, iteration
/// count and final diff (the RankGoldenDigestTest digest).
std::uint64_t rank_digest(const FaultyRankResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const double x : r.id_rank) mix(std::bit_cast<std::uint64_t>(x));
  for (const double x : r.prop_rank) mix(std::bit_cast<std::uint64_t>(x));
  mix(r.iterations);
  mix(std::bit_cast<std::uint64_t>(r.final_diff));
  return hash;
}

/// The chunk of `file` on its first stripe target.
BeeChunkFile& first_chunk(BeeCluster& cluster, const std::string& file) {
  const std::uint32_t target = cluster.meta().find(file)->pattern->targets[0];
  for (BeeChunkFile& chunk : cluster.targets()[target].chunks) {
    if (chunk.in_use && chunk.name == file) return chunk;
  }
  throw std::logic_error("no chunk for " + file);
}

/// One seeded cluster carrying all five corruptions the tests above
/// plant one at a time.
BeeCluster make_golden_cluster() {
  BeeCluster cluster = make_cluster(89);
  const std::string dir = cluster.mkdir(cluster.root(), "victim");
  cluster.create_file(dir, "a", 1 << 20);
  cluster.create_file(dir, "b", 1 << 20);
  cluster.meta().dentries[dir].clear();
  const std::string origin = cluster.create_file(cluster.root(), "x", 1 << 20);
  first_chunk(cluster, origin).xattr_origin = "ffff-9999-bee";
  const std::string renamed = cluster.create_file(cluster.root(), "y", 1 << 20);
  first_chunk(cluster, renamed).name =
      entry_id_from_fid(Fid{kBeeMetaSeq, 0x7fffffff, 0});
  const std::string pdir = cluster.mkdir(cluster.root(), "pdir");
  const std::string orphan = cluster.create_file(pdir, "child", 1 << 20);
  cluster.meta().find(orphan)->parent_entry_id.clear();
  const std::string bogus = cluster.create_file(cluster.root(), "z", 1 << 20);
  cluster.meta().find(bogus)->parent_entry_id = "dead-beef-bee";
  return cluster;
}

// Pins the BeeGFS check's bits: the first pass's report and ranks, and
// what the repair pass did, for every pool size.
TEST(BeeCheckerTest, GoldenBitsHoldForEveryPoolSize) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    const std::string tag =
        pool == nullptr ? "no pool" : "pool=" + std::to_string(pool->size());
    BeeCluster cluster = make_golden_cluster();
    CheckConfig config;
    config.pool = pool;
    config.apply_repairs = true;
    config.verify_after_repair = true;
    const CheckResult result = run_checker(cluster, config);
    EXPECT_EQ(result.vertices, 523u) << tag;
    EXPECT_EQ(result.edges, 1035u) << tag;
    EXPECT_EQ(result.report.findings.size(), 9u) << tag;
    EXPECT_EQ(fnv1a(render_json(result.report)), 0xff9af3d733c05896ULL) << tag;
    EXPECT_EQ(rank_digest(result.ranks), 0xd9bbbe4513452a2aULL) << tag;
    EXPECT_EQ(result.repair_outcomes.size(), 8u) << tag;
    EXPECT_EQ(result.repairs_applied, 6u) << tag;
    EXPECT_TRUE(result.verified_consistent) << tag;
  }
}

}  // namespace
}  // namespace faultyrank
