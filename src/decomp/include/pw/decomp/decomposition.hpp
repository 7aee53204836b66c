#pragma once

#include <cstddef>
#include <vector>

#include "pw/grid/geometry.hpp"

namespace pw::decomp {

/// 2D Cartesian decomposition of the horizontal (x, y) plane — MONC's
/// parallelisation. Columns are never split: each rank owns full z columns
/// of a rectangular (x, y) patch, with 1-deep halos exchanged with the
/// four (periodic) neighbours. In the paper's setting each rank would own
/// one accelerator; here ranks are in-process and the exchange is a memory
/// copy, which preserves the numerics and the communication structure.
struct RankExtent {
  std::size_t rank = 0;
  std::size_t px = 0, py = 0;        ///< process-grid coordinates
  std::size_t x_begin = 0, x_end = 0;  ///< global interior x range
  std::size_t y_begin = 0, y_end = 0;  ///< global interior y range

  std::size_t nx() const noexcept { return x_end - x_begin; }
  std::size_t ny() const noexcept { return y_end - y_begin; }
};

class Decomposition {
public:
  /// Splits `dims` over a `px x py` process grid. Every rank gets at least
  /// one cell in each split dimension (throws otherwise).
  Decomposition(grid::GridDims dims, std::size_t px, std::size_t py);

  /// Picks the most nearly square process grid for `ranks` ranks that fits
  /// `dims`; of a pair and its transpose, the one with the smaller px.
  static Decomposition auto_grid(grid::GridDims dims, std::size_t ranks);

  std::size_t ranks() const noexcept { return extents_.size(); }
  std::size_t px() const noexcept { return px_; }
  std::size_t py() const noexcept { return py_; }
  grid::GridDims global_dims() const noexcept { return dims_; }

  const RankExtent& extent(std::size_t rank) const {
    return extents_.at(rank);
  }
  grid::GridDims local_dims(std::size_t rank) const {
    const RankExtent& e = extent(rank);
    return {e.nx(), e.ny(), dims_.nz};
  }

  /// Neighbour rank in the periodic process grid; d{x,y} in {-1, 0, +1}.
  std::size_t neighbour(std::size_t rank, int dx, int dy) const;

  /// Bytes one halo exchange moves per field across all ranks (each rank
  /// sends its depth-1 perimeter columns over the full z extent) — the
  /// inter-node traffic a multi-accelerator deployment must carry per
  /// timestep.
  std::size_t halo_exchange_bytes_per_field() const;

private:
  grid::GridDims dims_;
  std::size_t px_ = 0, py_ = 0;
  std::vector<RankExtent> extents_;
};

}  // namespace pw::decomp
