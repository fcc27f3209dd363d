// The parallel aggregation pipeline must be bit-identical to the serial
// reference path: same GIDs, same CSR, same pairing flags, same
// unpaired-edge ordering — for any thread count. A committed golden
// digest pins that output across refactors of the build path itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "aggregator/aggregator.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "faults/injector.h"
#include "graph/unified_graph.h"
#include "scanner/scanner.h"
#include "testing/fixtures.h"
#include "workload/rmat.h"

namespace faultyrank {
namespace {

/// Asserts byte-for-byte equality of everything downstream consumers
/// read: vertex table columns, forward + reverse CSR, pairing flags,
/// in-degree splits, and the unpaired-edge list in its exact order.
void expect_identical(const UnifiedGraph& expected, const UnifiedGraph& actual) {
  ASSERT_EQ(expected.vertex_count(), actual.vertex_count());
  ASSERT_EQ(expected.edge_count(), actual.edge_count());

  const std::size_t n = expected.vertex_count();
  for (Gid v = 0; v < n; ++v) {
    ASSERT_EQ(expected.vertices().fid_of(v), actual.vertices().fid_of(v))
        << "gid " << v;
    ASSERT_EQ(expected.vertices().kind_of(v), actual.vertices().kind_of(v))
        << "gid " << v;
    ASSERT_EQ(expected.vertices().scan_count(v),
              actual.vertices().scan_count(v))
        << "gid " << v;
    ASSERT_EQ(expected.paired_in_degree(v), actual.paired_in_degree(v))
        << "gid " << v;
    ASSERT_EQ(expected.unpaired_in_degree(v), actual.unpaired_in_degree(v))
        << "gid " << v;
  }

  const auto compare_csr = [&](const Csr& want, const Csr& got,
                               const char* which) {
    ASSERT_EQ(want.vertex_count(), got.vertex_count()) << which;
    ASSERT_EQ(want.edge_count(), got.edge_count()) << which;
    for (Gid v = 0; v < want.vertex_count(); ++v) {
      ASSERT_EQ(want.edges_begin(v), got.edges_begin(v)) << which << " " << v;
      ASSERT_EQ(want.edges_end(v), got.edges_end(v)) << which << " " << v;
      for (auto slot = want.edges_begin(v); slot < want.edges_end(v); ++slot) {
        ASSERT_EQ(want.target(slot), got.target(slot))
            << which << " slot " << slot;
        ASSERT_EQ(want.kind(slot), got.kind(slot)) << which << " slot " << slot;
      }
    }
  };
  compare_csr(expected.forward(), actual.forward(), "forward");
  compare_csr(expected.reverse(), actual.reverse(), "reverse");

  for (std::uint64_t slot = 0; slot < expected.edge_count(); ++slot) {
    ASSERT_EQ(expected.paired(slot), actual.paired(slot)) << "slot " << slot;
  }
  ASSERT_EQ(expected.unpaired_edges(), actual.unpaired_edges());
}

/// 64-bit FNV-1a over everything expect_identical() compares: per GID
/// the fid, kind and scan count; the forward and reverse CSR (offsets,
/// targets, kinds); the pairing flag of every forward slot; and the
/// unpaired-edge list in order.
class GraphDigest {
 public:
  explicit GraphDigest(const UnifiedGraph& g) {
    const VertexTable& table = g.vertices();
    mix(g.vertex_count());
    for (Gid v = 0; v < g.vertex_count(); ++v) {
      mix(table.fid_of(v).seq);
      mix(table.fid_of(v).oid);
      mix(table.fid_of(v).ver);
      mix(static_cast<std::uint64_t>(table.kind_of(v)));
      mix(table.scan_count(v));
    }
    mix_csr(g.forward());
    mix_csr(g.reverse());
    for (std::uint64_t slot = 0; slot < g.edge_count(); ++slot) {
      mix(g.paired(slot) ? 1 : 0);
    }
    mix(g.unpaired_edges().size());
    for (const UnpairedEdge& e : g.unpaired_edges()) {
      mix(e.src);
      mix(e.dst);
      mix(static_cast<std::uint64_t>(e.kind));
    }
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_csr(const Csr& csr) {
    mix(csr.vertex_count());
    mix(csr.edge_count());
    for (Gid v = 0; v < csr.vertex_count(); ++v) {
      mix(csr.edges_begin(v));
      for (auto slot = csr.edges_begin(v); slot < csr.edges_end(v); ++slot) {
        mix(csr.target(slot));
        mix(static_cast<std::uint64_t>(csr.kind(slot)));
      }
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of the golden cluster's graph below. Interning order, CSR
/// layout and pairing feed the rank kernel and the detector, so any
/// change to them is a behaviour change: this must stay fixed across
/// refactors of the build path.
constexpr std::uint64_t kGoldenClusterDigest = 0x9750420a79a2735dULL;

/// GraphDigest's value, continued (64-bit FNV-1a) over the per-vertex
/// in-degree split, which GraphDigest leaves out: this pins the whole
/// output of UnifiedGraph::finalize.
std::uint64_t finalize_digest(const UnifiedGraph& g) {
  std::uint64_t hash = GraphDigest(g).value();
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (Gid v = 0; v < g.vertex_count(); ++v) {
    mix(g.paired_in_degree(v));
    mix(g.unpaired_in_degree(v));
  }
  return hash;
}

/// A multigraph built by hand to hit every finalize wrinkle: self-loops
/// (one vertex with two, of different kinds), duplicate u→v edges of the
/// same kind and of different kinds, paired and unpaired duplicates,
/// isolated vertices (including the last GIDs), and one hub with more
/// than 4096 out-edges and 4096 in-edges, so it outweighs any range's
/// share of the edges at every pool size. The edges arrive shuffled.
GeneratedGraph make_finalize_multigraph() {
  constexpr EdgeKind kKinds[] = {EdgeKind::kDirent, EdgeKind::kLinkEa,
                                 EdgeKind::kLovEa, EdgeKind::kObjParent,
                                 EdgeKind::kGeneric};
  GeneratedGraph g;
  g.vertex_count = 6000;  // 5500..5999 stay isolated
  constexpr Gid kHub = 17;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    // Targets 100..3099; 2000 of them are hit twice, with the same kind.
    g.edges.push_back({kHub, 100 + (i * 7) % 3000, kKinds[i % 5]});
  }
  for (std::uint32_t i = 0; i < 4500; ++i) {
    // Sources 200..3099 point back along a hub out-edge; the rest don't.
    g.edges.push_back({200 + i, kHub, kKinds[(i / 3) % 5]});
  }
  for (Gid v = 0; v < 5500; v += 97) {
    g.edges.push_back({v, v, EdgeKind::kGeneric});
  }
  // Two self-loops of different kinds on one vertex (not a multiple of 97).
  g.edges.push_back({4000, 4000, EdgeKind::kDirent});
  g.edges.push_back({4000, 4000, EdgeKind::kLinkEa});
  for (Gid v = 1000; v < 1200; ++v) {
    g.edges.push_back({v, v + 1, EdgeKind::kDirent});
    g.edges.push_back({v, v + 1, EdgeKind::kDirent});
    g.edges.push_back({v, v + 1, EdgeKind::kLovEa});
    if (v % 2 == 0) g.edges.push_back({v + 1, v, EdgeKind::kLinkEa});
  }
  for (Gid v = 3000; v < 3300; ++v) {
    // Two-cycles v <-> v+1 for v % 3 == 1, each with a chord to 5000..5399.
    if (v % 3 == 0) continue;
    g.edges.push_back({v, v % 3 == 1 ? v + 1 : v - 1, kKinds[v % 5]});
    g.edges.push_back({v, 5000 + v % 400, kKinds[(v + 1) % 5]});
  }
  Rng rng(0xf17a);
  for (std::size_t i = g.edges.size(); i > 1; --i) {
    std::swap(g.edges[i - 1], g.edges[rng.below(i)]);
  }
  return g;
}

/// finalize_digest of from_edges over RMAT-12 (avg degree 8) and over
/// make_finalize_multigraph(), computed with the has_edge-based pairing
/// passes the merge-based finalize replaced.
constexpr std::uint64_t kGoldenRmatFinalizeDigest = 0x1ea4ea5ec77488f7ULL;
constexpr std::uint64_t kGoldenMultigraphFinalizeDigest = 0x1a6bba537f82f6a4ULL;

/// The golden cluster: 2 000 files on 4 OSTs, every scenario injected.
LustreCluster make_golden_cluster() {
  LustreCluster cluster = testing::make_populated_cluster(2000, 1201);
  FaultInjector injector(cluster, 1202);
  for (const Scenario scenario : FaultInjector::scenario_list()) {
    (void)injector.inject(scenario);
  }
  return cluster;
}

/// Partials engineered to hit every interning wrinkle: cross-partial
/// duplicate scans (double-reference), phantom endpoints, last-wins
/// kind upgrades, and edges seen before/after their vertices.
std::vector<PartialGraph> make_adversarial_partials() {
  std::vector<PartialGraph> partials(3);
  auto fid = [](std::uint64_t seq, std::uint32_t oid) {
    return Fid{seq, oid, 0};
  };
  for (std::uint32_t i = 0; i < 400; ++i) {
    PartialGraph& p = partials[i % 2];
    p.add_vertex(fid(1, i), i % 3 == 0 ? ObjectKind::kDirectory
                                       : ObjectKind::kFile);
    // Edges to scanned, later-scanned, and never-scanned (phantom) fids.
    p.add_edge(fid(1, i), fid(1, (i * 7 + 3) % 400), EdgeKind::kDirent);
    p.add_edge(fid(1, (i * 7 + 3) % 400), fid(1, i), EdgeKind::kLinkEa);
    if (i % 5 == 0) {
      p.add_edge(fid(1, i), fid(0xdead, i), EdgeKind::kLovEa);  // phantom
    }
  }
  // Double-reference: the same FID scanned on two servers, with a kind
  // upgrade on the second sighting.
  for (std::uint32_t i = 0; i < 50; ++i) {
    partials[2].add_vertex(fid(1, i * 4), ObjectKind::kStripeObject);
    partials[2].add_edge(fid(0xdead, i * 4), fid(1, i * 4),
                         EdgeKind::kObjParent);
  }
  return partials;
}

TEST(ParallelAggregateTest, RmatFinalizeMatchesSerialForAnyThreadCount) {
  const GeneratedGraph rmat = generate_rmat({.scale = 12, .avg_degree = 8});
  const UnifiedGraph serial =
      UnifiedGraph::from_edges(rmat.vertex_count, rmat.edges);
  ASSERT_FALSE(serial.unpaired_edges().empty());  // RMAT is mostly unpaired
  for (const std::size_t threads : {2u, 3u, 7u}) {
    ThreadPool pool(threads);
    const UnifiedGraph parallel =
        UnifiedGraph::from_edges(rmat.vertex_count, rmat.edges, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelAggregateTest, FinalizeGoldenDigestHoldsForEveryPoolSize) {
  const GeneratedGraph rmat = generate_rmat({.scale = 12, .avg_degree = 8});
  const GeneratedGraph multi = make_finalize_multigraph();
  for (const std::optional<std::size_t> threads :
       {std::optional<std::size_t>(), std::optional<std::size_t>(1),
        std::optional<std::size_t>(2), std::optional<std::size_t>(3),
        std::optional<std::size_t>(4), std::optional<std::size_t>(8)}) {
    std::optional<ThreadPool> pool;
    if (threads) pool.emplace(*threads);
    ThreadPool* borrowed = pool ? &*pool : nullptr;
    const std::size_t label = threads ? *threads : 0;
    EXPECT_EQ(finalize_digest(UnifiedGraph::from_edges(
                  rmat.vertex_count, rmat.edges, borrowed)),
              kGoldenRmatFinalizeDigest)
        << std::hex << "rmat, pool " << label;
    EXPECT_EQ(finalize_digest(UnifiedGraph::from_edges(
                  multi.vertex_count, multi.edges, borrowed)),
              kGoldenMultigraphFinalizeDigest)
        << std::hex << "multigraph, pool " << label;
  }
}

TEST(ParallelAggregateTest, GoldenClusterDigestHoldsForEveryPoolSize) {
  const LustreCluster cluster = make_golden_cluster();
  const ClusterScan scan = scan_cluster(cluster);
  for (const std::optional<std::size_t> threads :
       {std::optional<std::size_t>(), std::optional<std::size_t>(1),
        std::optional<std::size_t>(4), std::optional<std::size_t>(8)}) {
    std::optional<ThreadPool> pool;
    if (threads) pool.emplace(*threads);
    ThreadPool* borrowed = pool ? &*pool : nullptr;
    const AggregationResult batch = aggregate(scan.results, {}, borrowed);
    EXPECT_EQ(GraphDigest(batch.graph).value(), kGoldenClusterDigest)
        << "batch, pool " << (threads ? *threads : 0);
    const PipelineResult streamed = scan_and_aggregate(cluster, borrowed);
    EXPECT_EQ(GraphDigest(streamed.agg.graph).value(), kGoldenClusterDigest)
        << "streamed, pool " << (threads ? *threads : 0);
  }
}

TEST(ParallelAggregateTest, AdversarialPartialsMatchSerial) {
  const std::vector<PartialGraph> partials = make_adversarial_partials();
  const UnifiedGraph serial = UnifiedGraph::aggregate(partials);
  for (const std::size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    const UnifiedGraph parallel = UnifiedGraph::aggregate(partials, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelAggregateTest, ClusterScanAggregateMatchesSerial) {
  LustreCluster cluster = testing::make_populated_cluster(200, 91);
  FaultInjector injector(cluster, 92);
  injector.inject_campaign(5);  // unpaired edges + phantoms in the graph
  const ClusterScan scan = scan_cluster(cluster);

  const AggregationResult serial = aggregate(scan.results);
  ThreadPool pool(4);
  const AggregationResult parallel = aggregate(scan.results, {}, &pool);
  expect_identical(serial.graph, parallel.graph);
  EXPECT_EQ(serial.transferred_bytes, parallel.transferred_bytes);
  EXPECT_DOUBLE_EQ(serial.sim_transfer_seconds, parallel.sim_transfer_seconds);
  EXPECT_DOUBLE_EQ(serial.sim_pipeline_seconds, parallel.sim_pipeline_seconds);
}

TEST(ParallelAggregateTest, StreamingPipelineMatchesBatchPath) {
  LustreCluster cluster = testing::make_populated_cluster(150, 93);
  FaultInjector injector(cluster, 94);
  injector.inject_campaign(3);

  const ClusterScan scan = scan_cluster(cluster);
  const AggregationResult batch = aggregate(scan.results);

  ThreadPool pool(4);
  const PipelineResult streamed = scan_and_aggregate(cluster, &pool);

  expect_identical(batch.graph, streamed.agg.graph);
  EXPECT_EQ(batch.transferred_bytes, streamed.agg.transferred_bytes);
  EXPECT_DOUBLE_EQ(batch.sim_transfer_seconds,
                   streamed.agg.sim_transfer_seconds);
  EXPECT_DOUBLE_EQ(batch.sim_pipeline_seconds,
                   streamed.agg.sim_pipeline_seconds);
  EXPECT_DOUBLE_EQ(scan.sim_seconds, streamed.scan.sim_seconds);
  EXPECT_EQ(scan.inodes_scanned, streamed.scan.inodes_scanned);
}

TEST(ParallelAggregateTest, PipelinedSimTimeOverlapsTransfers) {
  LustreCluster cluster = testing::make_populated_cluster(150, 95);
  const ClusterScan scan = scan_cluster(cluster);
  const AggregationResult agg = aggregate(scan.results);
  // Overlapped finish time is bounded by the barriered accounting and
  // can never beat the slowest scanner alone.
  EXPECT_LE(agg.sim_pipeline_seconds,
            scan.sim_seconds + agg.sim_transfer_seconds);
  EXPECT_GE(agg.sim_pipeline_seconds, scan.sim_seconds);
  EXPECT_GT(agg.sim_transfer_seconds, 0.0);
}

}  // namespace
}  // namespace faultyrank
