#include <gtest/gtest.h>

#include "pw/kernel/chunking.hpp"

namespace pw::kernel {
namespace {

TEST(ChunkPlan, SingleChunkWhenDisabled) {
  ChunkPlan plan({8, 32, 16}, 0);
  ASSERT_EQ(plan.chunks().size(), 1u);
  EXPECT_EQ(plan.chunks()[0].j_begin, 0u);
  EXPECT_EQ(plan.chunks()[0].j_end, 32u);
}

TEST(ChunkPlan, EvenSplit) {
  ChunkPlan plan({8, 32, 16}, 8);
  ASSERT_EQ(plan.chunks().size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(plan.chunks()[c].j_begin, 8 * c);
    EXPECT_EQ(plan.chunks()[c].width(), 8u);
  }
}

TEST(ChunkPlan, RaggedTail) {
  ChunkPlan plan({8, 30, 16}, 8);
  ASSERT_EQ(plan.chunks().size(), 4u);
  EXPECT_EQ(plan.chunks()[3].width(), 6u);
}

TEST(ChunkPlan, ChunksCoverDomainWithoutGap) {
  ChunkPlan plan({4, 100, 8}, 7);
  std::size_t covered = 0;
  std::size_t expected_begin = 0;
  for (const auto& c : plan.chunks()) {
    EXPECT_EQ(c.j_begin, expected_begin);
    covered += c.width();
    expected_begin = c.j_end;
  }
  EXPECT_EQ(covered, 100u);
}

TEST(ChunkPlan, StreamedValuesIncludeOverlap) {
  const grid::GridDims dims{8, 32, 16};
  ChunkPlan chunked(dims, 8);
  ChunkPlan whole(dims, 0);
  // Unchunked streams the padded volume once.
  EXPECT_EQ(whole.streamed_values_per_field(), (8u + 2) * (32 + 2) * (16 + 2));
  EXPECT_EQ(whole.overlap_values_per_field(), 0u);
  // 4 chunks of padded width 10 instead of one of 34: 6 extra columns.
  EXPECT_EQ(chunked.streamed_values_per_field(),
            (8u + 2) * (4 * 10) * (16 + 2));
  EXPECT_EQ(chunked.overlap_values_per_field(),
            (8u + 2) * 6 * (16 + 2));
}

TEST(ChunkPlan, ContiguousRunShrinksWithChunk) {
  const grid::GridDims dims{8, 64, 64};
  EXPECT_EQ(ChunkPlan(dims, 0).contiguous_run_doubles(), 66u * 66);
  EXPECT_EQ(ChunkPlan(dims, 16).contiguous_run_doubles(), 18u * 66);
  EXPECT_EQ(ChunkPlan(dims, 8).contiguous_run_doubles(), 10u * 66);
}

TEST(ChunkPlan, MaxPaddedFaceBoundsMemory) {
  ChunkPlan plan({8, 100, 64}, 32);
  // Chunks are 32,32,32,4 wide; the largest padded face is 34 x 66.
  EXPECT_EQ(plan.max_padded_face(), 34u * 66);
}

TEST(ChunkPlan, InvalidInputsThrow) {
  EXPECT_THROW(ChunkPlan({0, 4, 4}, 2), std::invalid_argument);
}

TEST(PartitionX, EvenAndRagged) {
  const auto even = partition_x(12, 3);
  ASSERT_EQ(even.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(even[p].width(), 4u);
  }
  const auto ragged = partition_x(13, 3);
  EXPECT_EQ(ragged[0].width(), 5u);
  EXPECT_EQ(ragged[1].width(), 4u);
  EXPECT_EQ(ragged[2].width(), 4u);
  // Contiguous cover.
  EXPECT_EQ(ragged[0].end, ragged[1].begin);
  EXPECT_EQ(ragged[2].end, 13u);
}

TEST(PartitionX, MoreKernelsThanPlanesClamps) {
  const auto parts = partition_x(3, 8);
  EXPECT_EQ(parts.size(), 3u);
  for (const auto& p : parts) {
    EXPECT_EQ(p.width(), 1u);
  }
}

TEST(PartitionX, ZeroKernelsThrows) {
  EXPECT_THROW(partition_x(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pw::kernel
