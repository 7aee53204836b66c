#include "pw/decomp/decomposition.hpp"

#include <algorithm>
#include <stdexcept>

namespace pw::decomp {

namespace {

std::size_t share_begin(std::size_t total, std::size_t parts,
                        std::size_t index) {
  // First `total % parts` parts get one extra cell.
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  return index * base + std::min(index, extra);
}

}  // namespace

Decomposition::Decomposition(grid::GridDims dims, std::size_t px,
                             std::size_t py)
    : dims_(dims), px_(px), py_(py) {
  if (px == 0 || py == 0) {
    throw std::invalid_argument("Decomposition: empty process grid");
  }
  if (px > dims.nx || py > dims.ny) {
    throw std::invalid_argument(
        "Decomposition: more ranks than cells in a split dimension");
  }
  extents_.reserve(px * py);
  for (std::size_t iy = 0; iy < py; ++iy) {
    for (std::size_t ix = 0; ix < px; ++ix) {
      RankExtent e;
      e.rank = extents_.size();
      e.px = ix;
      e.py = iy;
      e.x_begin = share_begin(dims.nx, px, ix);
      e.x_end = share_begin(dims.nx, px, ix + 1);
      e.y_begin = share_begin(dims.ny, py, iy);
      e.y_end = share_begin(dims.ny, py, iy + 1);
      extents_.push_back(e);
    }
  }
}

Decomposition Decomposition::auto_grid(grid::GridDims dims,
                                       std::size_t ranks) {
  if (ranks == 0) {
    throw std::invalid_argument("Decomposition: zero ranks");
  }
  // Factor pair closest to square (smallest long/short side ratio),
  // respecting dimension bounds. Ratios are compared exactly, by
  // cross-multiplication, so a pair and its transpose always tie and the
  // tie goes to the smaller px.
  std::size_t best_px = 0, best_py = 0;
  for (std::size_t px = 1; px <= ranks; ++px) {
    if (ranks % px != 0) {
      continue;
    }
    const std::size_t py = ranks / px;
    if (px > dims.nx || py > dims.ny) {
      continue;
    }
    if (best_px == 0 ||
        std::max(px, py) * std::min(best_px, best_py) <
            std::max(best_px, best_py) * std::min(px, py)) {
      best_px = px;
      best_py = py;
    }
  }
  if (best_px == 0) {
    throw std::invalid_argument(
        "Decomposition: no factorisation fits the grid");
  }
  return Decomposition(dims, best_px, best_py);
}

std::size_t Decomposition::halo_exchange_bytes_per_field() const {
  std::size_t cells = 0;
  for (const RankExtent& e : extents_) {
    cells += (2 * (e.nx() + e.ny()) + 4) * dims_.nz;
  }
  return cells * sizeof(double);
}

std::size_t Decomposition::neighbour(std::size_t rank, int dx, int dy) const {
  const RankExtent& e = extent(rank);
  const std::size_t nx =
      (e.px + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(px_) + dx)) %
      px_;
  const std::size_t ny =
      (e.py + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(py_) + dy)) %
      py_;
  return ny * px_ + nx;
}

}  // namespace pw::decomp
