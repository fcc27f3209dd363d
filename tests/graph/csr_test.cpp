#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"

namespace faultyrank {
namespace {

TEST(CsrTest, EmptyGraph) {
  const Csr csr = Csr::build(0, {});
  EXPECT_EQ(csr.vertex_count(), 0u);
  EXPECT_EQ(csr.edge_count(), 0u);
}

TEST(CsrTest, VerticesWithoutEdges) {
  const Csr csr = Csr::build(5, {});
  EXPECT_EQ(csr.vertex_count(), 5u);
  for (Gid v = 0; v < 5; ++v) EXPECT_EQ(csr.out_degree(v), 0u);
}

TEST(CsrTest, SmallKnownGraph) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {0, 2, EdgeKind::kDirent},
      {1, 0, EdgeKind::kLinkEa},
      {2, 0, EdgeKind::kLinkEa},
  };
  const Csr csr = Csr::build(3, edges);
  EXPECT_EQ(csr.edge_count(), 4u);
  EXPECT_EQ(csr.out_degree(0), 2u);
  EXPECT_EQ(csr.out_degree(1), 1u);
  EXPECT_EQ(csr.out_degree(2), 1u);
  EXPECT_TRUE(csr.has_edge(0, 1));
  EXPECT_TRUE(csr.has_edge(0, 2));
  EXPECT_FALSE(csr.has_edge(1, 2));
  EXPECT_TRUE(csr.has_edge(0, 1, EdgeKind::kDirent));
  EXPECT_FALSE(csr.has_edge(0, 1, EdgeKind::kLovEa));
}

TEST(CsrTest, AdjacencyIsSortedByTarget) {
  const std::vector<GidEdge> edges = {
      {0, 3, EdgeKind::kGeneric},
      {0, 1, EdgeKind::kGeneric},
      {0, 2, EdgeKind::kGeneric},
  };
  const Csr csr = Csr::build(4, edges);
  std::vector<Gid> targets;
  for (auto slot = csr.edges_begin(0); slot < csr.edges_end(0); ++slot) {
    targets.push_back(csr.target(slot));
  }
  EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
}

TEST(CsrTest, MultiEdgesAreKept) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {0, 1, EdgeKind::kDirent},
      {0, 1, EdgeKind::kLovEa},
  };
  const Csr csr = Csr::build(2, edges);
  EXPECT_EQ(csr.edge_count(), 3u);
  EXPECT_EQ(csr.edge_multiplicity(0, 1), 3u);
  EXPECT_EQ(csr.edge_multiplicity(1, 0), 0u);
}

TEST(CsrTest, OutOfRangeEndpointThrows) {
  const std::vector<GidEdge> edges = {{0, 7, EdgeKind::kGeneric}};
  EXPECT_THROW(Csr::build(3, edges), std::out_of_range);
}

TEST(CsrTest, OutOfRangeEndpointThrowsWithPool) {
  ThreadPool pool(3);
  std::vector<GidEdge> edges;
  for (Gid v = 0; v < 100; ++v) edges.push_back({v, (v + 1) % 100});
  edges.push_back({42, 100, EdgeKind::kGeneric});  // dst out of range
  EXPECT_THROW(Csr::build(100, edges, &pool), std::out_of_range);
  edges.back() = {100, 42, EdgeKind::kGeneric};  // src out of range
  EXPECT_THROW(Csr::build(100, edges, &pool), std::out_of_range);
  EXPECT_THROW(Csr::build(100, edges), std::out_of_range);
}

/// Random multigraph with every edge kind, self-loops, duplicate u→v
/// edges of one kind and of several kinds, and a hub holding about a
/// third of the edges.
std::vector<GidEdge> make_multi_kind_multigraph(std::size_t n,
                                                std::uint64_t seed) {
  constexpr EdgeKind kKinds[] = {EdgeKind::kDirent, EdgeKind::kLinkEa,
                                 EdgeKind::kLovEa, EdgeKind::kObjParent,
                                 EdgeKind::kGeneric};
  Rng rng(seed);
  std::vector<GidEdge> edges;
  for (int i = 0; i < 6000; ++i) {
    const auto src = static_cast<Gid>(i % 3 == 0 ? 7 : rng.below(n));
    const auto dst = static_cast<Gid>(rng.below(n / 4));  // many repeats
    edges.push_back({src, dst, kKinds[rng.below(5)]});
  }
  for (Gid v = 0; v < n; v += 11) edges.push_back({v, v, kKinds[v % 5]});
  edges.push_back(edges.front());  // an exact duplicate
  return edges;
}

TEST(CsrTest, TransposeMatchesSortedTripleReference) {
  constexpr std::size_t kN = 400;
  const std::vector<GidEdge> edges = make_multi_kind_multigraph(kN, 7);
  // Reference: the reverse adjacency of v is every (src, kind) with
  // dst == v, in (src, kind) order — i.e. the (dst, src, kind) triples
  // sorted.
  std::vector<std::tuple<Gid, Gid, EdgeKind>> triples;
  for (const GidEdge& e : edges) triples.emplace_back(e.dst, e.src, e.kind);
  std::sort(triples.begin(), triples.end());

  for (const std::optional<std::size_t> threads :
       {std::optional<std::size_t>(), std::optional<std::size_t>(1),
        std::optional<std::size_t>(3), std::optional<std::size_t>(8)}) {
    std::optional<ThreadPool> pool;
    if (threads) pool.emplace(*threads);
    ThreadPool* borrowed = pool ? &*pool : nullptr;
    const Csr rev = Csr::build(kN, edges, borrowed).reversed(borrowed);
    ASSERT_EQ(rev.vertex_count(), kN);
    ASSERT_EQ(rev.edge_count(), triples.size());
    std::uint64_t slot = 0;
    for (Gid v = 0; v < kN; ++v) {
      ASSERT_EQ(rev.edges_begin(v), slot) << "vertex " << v;
      for (; slot < triples.size() && std::get<0>(triples[slot]) == v;
           ++slot) {
        ASSERT_EQ(rev.target(slot), std::get<1>(triples[slot])) << slot;
        ASSERT_EQ(rev.kind(slot), std::get<2>(triples[slot])) << slot;
      }
      ASSERT_EQ(rev.edges_end(v), slot) << "vertex " << v;
    }
  }
}

TEST(CsrTest, DoubleReverseRoundTripsMultiKindGraph) {
  constexpr std::size_t kN = 300;
  const std::vector<GidEdge> edges = make_multi_kind_multigraph(kN, 11);
  ThreadPool pool(4);
  const Csr csr = Csr::build(kN, edges);
  for (ThreadPool* borrowed : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const Csr back = csr.reversed(borrowed).reversed(borrowed);
    ASSERT_EQ(back.vertex_count(), kN);
    ASSERT_EQ(back.edge_count(), csr.edge_count());
    for (Gid v = 0; v <= kN; ++v) {
      ASSERT_EQ(back.offsets()[v], csr.offsets()[v]);
    }
    for (std::uint64_t slot = 0; slot < csr.edge_count(); ++slot) {
      ASSERT_EQ(back.target(slot), csr.target(slot)) << slot;
      ASSERT_EQ(back.kind(slot), csr.kind(slot)) << slot;
    }
  }
}

TEST(CsrTest, ReversedSwapsDirections) {
  const std::vector<GidEdge> edges = {
      {0, 1, EdgeKind::kDirent},
      {2, 1, EdgeKind::kLovEa},
  };
  const Csr csr = Csr::build(3, edges);
  const Csr rev = csr.reversed();
  EXPECT_EQ(rev.edge_count(), 2u);
  EXPECT_TRUE(rev.has_edge(1, 0, EdgeKind::kDirent));
  EXPECT_TRUE(rev.has_edge(1, 2, EdgeKind::kLovEa));
  EXPECT_FALSE(rev.has_edge(0, 1));
}

TEST(CsrTest, DoubleReverseIsIdentity) {
  Rng rng(99);
  std::vector<GidEdge> edges;
  constexpr std::size_t kN = 200;
  for (int i = 0; i < 2000; ++i) {
    edges.push_back({static_cast<Gid>(rng.below(kN)),
                     static_cast<Gid>(rng.below(kN)), EdgeKind::kGeneric});
  }
  const Csr csr = Csr::build(kN, edges);
  const Csr back = csr.reversed().reversed();
  ASSERT_EQ(back.edge_count(), csr.edge_count());
  for (Gid v = 0; v < kN; ++v) {
    ASSERT_EQ(back.out_degree(v), csr.out_degree(v));
    for (auto slot = csr.edges_begin(v); slot < csr.edges_end(v); ++slot) {
      EXPECT_EQ(back.target(slot), csr.target(slot));
    }
  }
}

TEST(CsrTest, BytesAccountsForAllArrays) {
  const std::vector<GidEdge> edges = {{0, 1, EdgeKind::kGeneric}};
  const Csr csr = Csr::build(2, edges);
  // offsets: 3 u64, targets: 1 u32, kinds: 1 u8 — capacity may exceed.
  EXPECT_GE(csr.bytes(), 3 * 8 + 4 + 1u);
}

// Property sweep: degree sums and offsets invariants on random graphs.
class CsrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrPropertyTest, StructuralInvariantsHold) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.below(500);
  const std::size_t m = rng.below(4000);
  std::vector<GidEdge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back({static_cast<Gid>(rng.below(n)),
                     static_cast<Gid>(rng.below(n)), EdgeKind::kGeneric});
  }
  const Csr csr = Csr::build(n, edges);
  ASSERT_EQ(csr.vertex_count(), n);
  ASSERT_EQ(csr.edge_count(), m);

  std::uint64_t degree_sum = 0;
  for (Gid v = 0; v < n; ++v) {
    EXPECT_LE(csr.edges_begin(v), csr.edges_end(v));
    degree_sum += csr.out_degree(v);
  }
  EXPECT_EQ(degree_sum, m);

  // Every input edge must be findable.
  for (const auto& e : edges) {
    EXPECT_TRUE(csr.has_edge(e.src, e.dst));
  }
  // Reversal preserves edge count and transposes membership.
  const Csr rev = csr.reversed();
  EXPECT_EQ(rev.edge_count(), m);
  for (int i = 0; i < 50 && i < static_cast<int>(edges.size()); ++i) {
    EXPECT_TRUE(rev.has_edge(edges[i].dst, edges[i].src));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CsrPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace faultyrank
