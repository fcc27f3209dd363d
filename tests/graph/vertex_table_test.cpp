#include "graph/vertex_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace faultyrank {
namespace {

TEST(VertexTableTest, InternAssignsDenseSequentialGids) {
  VertexTable table;
  EXPECT_EQ(table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kDirectory), 0u);
  EXPECT_EQ(table.intern_scanned(Fid{1, 2, 0}, ObjectKind::kFile), 1u);
  EXPECT_EQ(table.intern_scanned(Fid{2, 1, 0}, ObjectKind::kStripeObject), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(VertexTableTest, LookupFindsInternedAndRejectsUnknown) {
  VertexTable table;
  const Gid gid = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kFile);
  EXPECT_EQ(table.lookup(Fid{1, 1, 0}), gid);
  EXPECT_EQ(table.lookup(Fid{9, 9, 9}), kInvalidGid);
}

TEST(VertexTableTest, RemappingIsBijective) {
  VertexTable table;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.intern_scanned(Fid{0x200000400, i + 1, 0}, ObjectKind::kFile);
  }
  for (Gid gid = 0; gid < 1000; ++gid) {
    EXPECT_EQ(table.lookup(table.fid_of(gid)), gid);
  }
}

TEST(VertexTableTest, ReferencedCreatesPhantom) {
  VertexTable table;
  const Gid gid = table.intern_referenced(Fid{1, 1, 0});
  EXPECT_FALSE(table.is_scanned(gid));
  EXPECT_EQ(table.kind_of(gid), ObjectKind::kPhantom);
  EXPECT_EQ(table.scan_count(gid), 0u);
}

TEST(VertexTableTest, ScanUpgradesPhantom) {
  VertexTable table;
  const Gid phantom = table.intern_referenced(Fid{1, 1, 0});
  const Gid upgraded = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kFile);
  EXPECT_EQ(phantom, upgraded);
  EXPECT_TRUE(table.is_scanned(upgraded));
  EXPECT_EQ(table.kind_of(upgraded), ObjectKind::kFile);
}

TEST(VertexTableTest, ReferenceAfterScanKeepsScannedState) {
  VertexTable table;
  const Gid gid = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kDirectory);
  EXPECT_EQ(table.intern_referenced(Fid{1, 1, 0}), gid);
  EXPECT_TRUE(table.is_scanned(gid));
  EXPECT_EQ(table.kind_of(gid), ObjectKind::kDirectory);
}

TEST(VertexTableTest, DuplicateScansCountIdCollisions) {
  VertexTable table;
  const Gid first = table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kStripeObject);
  const Gid second =
      table.intern_scanned(Fid{1, 1, 0}, ObjectKind::kStripeObject);
  EXPECT_EQ(first, second);
  EXPECT_EQ(table.scan_count(first), 2u);
}

TEST(VertexTableTest, BytesGrowsWithContent) {
  VertexTable table;
  const auto empty = table.bytes();
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.intern_scanned(Fid{1, i + 1, 0}, ObjectKind::kFile);
  }
  EXPECT_GT(table.bytes(), empty);
}

TEST(VertexTableTest, GrowthAcrossRehashesKeepsEveryFid) {
  // No reserve: the index starts at 16 slots and doubles ~15 times.
  VertexTable table;
  constexpr std::uint32_t kCount = 200'000;
  const auto fid = [](std::uint32_t i) {
    return Fid{0x200000400ULL + (i % 7), i, i % 3};
  };
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const Gid gid = i % 2 == 0
                        ? table.intern_scanned(fid(i), ObjectKind::kFile)
                        : table.intern_referenced(fid(i));
    ASSERT_EQ(gid, i);
    if (i % 3 == 0) {
      // Re-interning an earlier FID hits, whatever rehashes came since.
      ASSERT_EQ(table.intern_referenced(fid(i / 2)), i / 2);
    }
  }
  ASSERT_EQ(table.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(table.lookup(fid(i)), i);
    ASSERT_EQ(table.fid_of(i), fid(i));
    ASSERT_EQ(table.kind_of(i),
              i % 2 == 0 ? ObjectKind::kFile : ObjectKind::kPhantom);
  }
}

TEST(VertexTableTest, CollidingLowHashBitsProbeLongChains) {
  // FIDs whose FidHash values agree in their low 12 bits all start
  // probing at the same slot while the index has ≤ 4096 slots.
  constexpr std::size_t kMask = (1u << 12) - 1;
  std::vector<Fid> colliding;
  for (std::uint32_t oid = 1; colliding.size() < 301; ++oid) {
    const Fid fid{0x300000000ULL, oid, 0};
    if ((FidHash{}(fid) & kMask) == 0) colliding.push_back(fid);
  }
  const Fid absent = colliding.back();
  colliding.pop_back();

  // Unrelated FIDs interleave into the chain's neighborhood, so
  // colliding[i] gets GID 2i.
  VertexTable table;
  for (std::size_t i = 0; i < colliding.size(); ++i) {
    EXPECT_EQ(table.intern_scanned(colliding[i], ObjectKind::kDirectory),
              2 * i);
    table.intern_referenced(Fid{0x400000000ULL, static_cast<std::uint32_t>(i),
                                0});
  }
  for (std::size_t i = 0; i < colliding.size(); ++i) {
    EXPECT_EQ(table.lookup(colliding[i]), 2 * i);
    EXPECT_EQ(table.intern_scanned(colliding[i], ObjectKind::kFile), 2 * i);
    EXPECT_EQ(table.scan_count(static_cast<Gid>(2 * i)), 2u);
  }
  // An absent key walks the whole chain to its empty end.
  EXPECT_EQ(table.lookup(absent), kInvalidGid);
  EXPECT_EQ(table.size(), 2 * colliding.size());
}

TEST(VertexTableTest, AbsentLookupsOnEmptyAndFullTables) {
  VertexTable empty;
  EXPECT_EQ(empty.lookup(Fid{1, 1, 0}), kInvalidGid);
  EXPECT_EQ(empty.lookup(kNullFid), kInvalidGid);

  VertexTable reserved;
  reserved.reserve(100);
  EXPECT_EQ(reserved.lookup(Fid{1, 1, 0}), kInvalidGid);

  // Filled to its load limit: 1024 vertices in the 2048 slots that
  // reserve(1024) allocates, so the next insert would rehash.
  VertexTable full;
  full.reserve(1024);
  const std::uint64_t reserved_bytes = full.bytes();
  for (std::uint32_t i = 0; i < 1024; ++i) {
    full.intern_scanned(Fid{5, i, 0}, ObjectKind::kFile);
  }
  EXPECT_EQ(full.bytes(), reserved_bytes);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    EXPECT_EQ(full.lookup(Fid{6, i, 0}), kInvalidGid);
    EXPECT_EQ(full.lookup(Fid{5, i, 1}), kInvalidGid);
  }
  EXPECT_EQ(full.lookup(kNullFid), kInvalidGid);
}

TEST(VertexTableTest, UpgradeAndSaturationSurviveRehash) {
  VertexTable table;
  const Fid target{7, 7, 7};
  const Gid phantom = table.intern_referenced(target);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table.intern_referenced(Fid{8, i, 0});  // several rehashes
  }
  EXPECT_EQ(table.intern_scanned(target, ObjectKind::kStripeObject), phantom);
  EXPECT_TRUE(table.is_scanned(phantom));
  EXPECT_EQ(table.kind_of(phantom), ObjectKind::kStripeObject);
  EXPECT_EQ(table.scan_count(phantom), 1u);

  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(table.intern_scanned(target, ObjectKind::kFile), phantom);
    table.intern_scanned(Fid{9, i, 0}, ObjectKind::kFile);
    for (std::uint32_t j = 0; j < 100; ++j) {
      table.intern_referenced(Fid{10, i * 100 + j, 0});  // more rehashes
    }
  }
  EXPECT_EQ(table.scan_count(phantom), 255u);
  EXPECT_EQ(table.kind_of(phantom), ObjectKind::kFile);
  EXPECT_EQ(table.lookup(target), phantom);
}

TEST(VertexTableTest, BytesIsExact) {
  constexpr std::uint64_t kColumnBytes =
      sizeof(Fid) + sizeof(ObjectKind) + sizeof(std::uint8_t);
  VertexTable table;
  EXPECT_EQ(table.bytes(), 0u);

  // reserve(n) sizes the index to the next power of two ≥ 2n and each
  // column to exactly n.
  table.reserve(1024);
  EXPECT_EQ(table.bytes(), 2048 * sizeof(Gid) + 1024 * kColumnBytes);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    table.intern_referenced(Fid{3, i, 0});
  }
  EXPECT_EQ(table.bytes(), 2048 * sizeof(Gid) + 1024 * kColumnBytes);

  // One more vertex passes load 1/2: the index doubles, and so do the
  // columns.
  table.intern_referenced(Fid{3, 1024, 0});
  EXPECT_EQ(table.bytes(), 4096 * sizeof(Gid) + 2048 * kColumnBytes);
}

}  // namespace
}  // namespace faultyrank
