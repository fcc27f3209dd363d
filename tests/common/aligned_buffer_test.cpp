#include "common/aligned_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/thread_pool.h"

namespace faultyrank {
namespace {

TEST(AlignedBufferTest, AlignmentAndSize) {
  AlignedBuffer<double> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(buf.bytes(), 8000u);
  EXPECT_FALSE(buf.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                AlignedBuffer<double>::kAlignment,
            0u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<double>(i);
  }
  EXPECT_EQ(buf.span()[999], 999.0);
}

TEST(AlignedBufferTest, EmptyAndMove) {
  AlignedBuffer<float> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);

  AlignedBuffer<float> a(64);
  a[0] = 42.0f;
  const float* p = a.data();
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42.0f);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty

  AlignedBuffer<float> c(8);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 64u);
}

TEST(AlignedBufferTest, FillViaRanges) {
  // The plan's usage pattern: allocate uninitialised, fill each range
  // on the pool, read back everywhere.
  ThreadPool pool(3);
  AlignedBuffer<double> buf(3000);
  const std::vector<std::size_t> bounds = {0, 1000, 2000, 3000};
  pool.parallel_for_ranges(
      bounds, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        for (std::size_t i = begin; i < end; ++i) {
          buf[i] = static_cast<double>(chunk);
        }
      });
  EXPECT_EQ(buf[0], 0.0);
  EXPECT_EQ(buf[1500], 1.0);
  EXPECT_EQ(buf[2999], 2.0);
}

}  // namespace
}  // namespace faultyrank
