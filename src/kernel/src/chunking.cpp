#include "pw/kernel/chunking.hpp"

#include <algorithm>
#include <stdexcept>

namespace pw::kernel {

ChunkPlan::ChunkPlan(grid::GridDims dims, std::size_t chunk_y)
    : dims_(dims), chunk_y_(chunk_y == 0 ? dims.ny : chunk_y) {
  if (dims.cells() == 0) {
    throw std::invalid_argument("ChunkPlan: empty grid");
  }
  if (chunk_y_ < 1) {
    throw std::invalid_argument("ChunkPlan: chunk width must be positive");
  }
  for (std::size_t j = 0; j < dims.ny; j += chunk_y_) {
    chunks_.push_back({j, std::min(dims.ny, j + chunk_y_)});
  }
}

std::size_t ChunkPlan::max_padded_face() const noexcept {
  std::size_t widest = 0;
  for (const auto& c : chunks_) {
    widest = std::max(widest, c.padded_width());
  }
  return widest * (dims_.nz + 2);
}

std::size_t ChunkPlan::streamed_values_per_field() const noexcept {
  std::size_t total = 0;
  for (const auto& c : chunks_) {
    total += (dims_.nx + 2) * c.padded_width() * (dims_.nz + 2);
  }
  return total;
}

std::size_t ChunkPlan::overlap_values_per_field() const noexcept {
  const std::size_t unchunked = (dims_.nx + 2) * (dims_.ny + 2) * (dims_.nz + 2);
  return streamed_values_per_field() - unchunked;
}

std::size_t ChunkPlan::contiguous_run_doubles() const noexcept {
  std::size_t smallest = SIZE_MAX;
  for (const auto& c : chunks_) {
    smallest = std::min(smallest, c.padded_width() * (dims_.nz + 2));
  }
  return smallest == SIZE_MAX ? 0 : smallest;
}

std::vector<XRange> partition_x(std::size_t nx, std::size_t kernels) {
  if (kernels == 0) {
    throw std::invalid_argument("partition_x: need at least one kernel");
  }
  kernels = std::min(kernels, nx);
  std::vector<XRange> ranges;
  ranges.reserve(kernels);
  const std::size_t base = nx / kernels;
  const std::size_t extra = nx % kernels;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < kernels; ++p) {
    const std::size_t width = base + (p < extra ? 1 : 0);
    ranges.push_back({begin, begin + width});
    begin += width;
  }
  return ranges;
}

}  // namespace pw::kernel
