#pragma once

#include <cstddef>
#include <vector>

#include "pw/grid/geometry.hpp"
#include "pw/kernel/config.hpp"

namespace pw::kernel {

/// One Y-chunk of the domain (paper Fig. 4): the interior j-range this pass
/// is responsible for. Streaming always covers [j_begin-1, j_end+1) so
/// adjacent chunks overlap by two grid points (one halo column each), the
/// overlap the paper's dotted line shows.
struct YChunk {
  std::size_t j_begin = 0;
  std::size_t j_end = 0;  ///< exclusive

  std::size_t width() const noexcept { return j_end - j_begin; }
  std::size_t padded_width() const noexcept { return width() + 2; }
};

/// Decomposition of a grid into Y-chunks plus the streaming-cost accounting
/// the external-memory model needs.
class ChunkPlan {
public:
  /// Splits dims.ny into chunks of at most `chunk_y` interior columns.
  /// chunk_y == 0 means "no chunking" (one chunk spanning all of Y).
  ChunkPlan(grid::GridDims dims, std::size_t chunk_y);

  const std::vector<YChunk>& chunks() const noexcept { return chunks_; }
  grid::GridDims dims() const noexcept { return dims_; }
  std::size_t chunk_y() const noexcept { return chunk_y_; }

  /// Largest padded chunk face (columns x levels incl. halo) — what sizes
  /// the shift buffers, hence the on-chip memory bound.
  std::size_t max_padded_face() const noexcept;

  /// Values streamed per field for one full grid pass, including the
  /// x/z halos and the inter-chunk Y overlap.
  std::size_t streamed_values_per_field() const noexcept;

  /// Extra values streamed (per field) relative to an unchunked pass —
  /// the re-read halo columns.
  std::size_t overlap_values_per_field() const noexcept;

  /// The contiguous external-memory run the *read data* stage sees: one
  /// padded chunk face (the chunk's j-columns including halo, all z incl.
  /// halo) is contiguous in MONC layout. Feeds the burst-efficiency model —
  /// small chunks mean short bursts (paper: negligible except <= 8).
  std::size_t contiguous_run_doubles() const noexcept;

private:
  grid::GridDims dims_;
  std::size_t chunk_y_ = 0;
  std::vector<YChunk> chunks_;
};

/// Splits the interior x-planes into `kernels` near-equal slabs, one per
/// kernel instance (§IV: six kernels on the Alveo, five on the Stratix 10).
/// Each slab additionally streams its own +/-1 halo planes. `kernels` is
/// clamped to nx, so no slab is empty.
std::vector<XRange> partition_x(std::size_t nx, std::size_t kernels);

}  // namespace pw::kernel
