#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pw/advect/scheme.hpp"
#include "pw/hls/pragmas.hpp"

namespace pw::kernel {

/// The paper's general-purpose 3D shift buffer (Fig. 3), held as a ring.
///
/// Values stream in raster order (z fastest, then y, then x — the order the
/// *read data* stage produces), and once filled the buffer completes one
/// 27-point stencil per value consumed, centred one plane, column and cell
/// behind the input.
///
/// On the FPGA the paper moves every value through three structures so
/// each BRAM sees one read and one write per cycle at II = 1: the 3-deep
/// X slab over the padded Y–Z face, a 3-wide Y window over the Z column
/// per slice, and a 3x3 register window per slice. Run literally on a host
/// that is 3 slab, 9 window and 27 register moves per value. The host
/// keeps only the slab, as a ring of three x-planes (`3 x ny_padded x
/// nz_padded` values): each value is written once, into the slot of its
/// plane, and a completed stencil is read where it lies through a `View`:
/// three plane pointers plus the row stride. What stays Fig. 3:
///  * the emission contract — advance()/push() complete exactly the
///    windows, in exactly the order, the cascade did, so the cycle-level
///    stages and both vendor frontends keep their per-value beat;
///  * the storage accounting — slab_doubles(), window_doubles() and
///    register_doubles() still describe the three on-chip structures the
///    FPGA resource estimator charges for.
///
/// advance_column() writes one whole padded z-column per call, the form
/// the machine's streaming pass feeds.
///
/// The buffer is sized by the *padded* chunk face (interior + 2 halo), so
/// on-chip memory is bounded by the Y-chunk and Z sizes only (Fig. 4).
///
/// Generic over the stored value type (`double` in the paper; `float` or
/// fixed-point for the §V reduced-precision study, halving/quartering the
/// on-chip memory the buffers consume).
template <typename T>
class BasicShiftBuffer3D {
public:
  /// A completed stencil read in place: the centre's cell in each of the
  /// three x-planes (x offsets -1, 0, +1) and the row stride (one y step;
  /// z is contiguous). The same at()/centre() interface as Stencil27T, so
  /// every op reads either.
  struct View {
    std::array<const T*, 3> plane{};
    std::ptrdiff_t row = 0;

    T at(int dx, int dy, int dz) const {
      return plane[static_cast<std::size_t>(dx + 1)][dy * row + dz];
    }
    T centre() const { return *plane[1]; }

    /// The window dz cells higher in the same column.
    View raised(std::ptrdiff_t dz) const {
      return {{plane[0] + dz, plane[1] + dz, plane[2] + dz}, row};
    }

    /// A copy in (dx, dy, dz) order — the form push() passes through FIFOs.
    advect::Stencil27T<T> stencil() const {
      advect::Stencil27T<T> s;
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dz = -1; dz <= 1; ++dz) {
            s.at(dx, dy, dz) = at(dx, dy, dz);
          }
        }
      }
      return s;
    }
  };

  /// `ny_padded`/`nz_padded` include the 1-deep halo on each side (>= 3).
  BasicShiftBuffer3D(std::size_t ny_padded, std::size_t nz_padded)
      : ny_(ny_padded), nz_(nz_padded) {
    if (ny_ < 3 || nz_ < 3) {
      throw std::invalid_argument(
          "ShiftBuffer3D: padded face must be at least 3x3");
    }
    PW_HLS_ARRAY_PARTITION(ring_, complete, 3, 1);  // one array per plane
    PW_HLS_BIND_STORAGE(ring_, bram);  // URAM costs II=2 (paper SIII.A)
    ring_.assign(3 * ny_ * nz_, T{});
  }

  /// Consumes the next raster value. Returns true when window() now holds
  /// a complete stencil (i.e. from the third plane onwards, for centres
  /// away from the raster edges). Because the padded face is the interior
  /// plus a 1-deep halo, every completed window is centred on an interior
  /// cell and the count of completions is exactly interior_cells — no
  /// caller-side filtering is needed.
  bool advance(T value) {
    PW_HLS_PIPELINE_II(1);
    const bool complete = next_would_emit();
    last_slot_ = slot_;
    last_column_ = in_j_ * nz_;
    last_k_ = in_k_;
    ring_[slot_ * ny_ * nz_ + last_column_ + in_k_] = value;
    if (++in_k_ == nz_) {
      in_k_ = 0;
      next_column();
    }
    return complete;
  }

  /// Consumes one whole padded z-column (nz_padded values, bottom halo to
  /// top halo) — the nz_padded advance() calls of one column in one write.
  /// The raster must be at the start of a column. Returns true when the
  /// column completed windows: then column_window(ck) holds, for every ck
  /// in [1, nz_padded - 2], the window advance() would have completed at
  /// that height, and in that order.
  bool advance_column(const T* column) {
    if (in_k_ != 0) {
      throw std::logic_error("ShiftBuffer3D: advance_column mid-column");
    }
    const bool complete = in_i_ >= 2 && in_j_ >= 2;
    last_slot_ = slot_;
    last_column_ = in_j_ * nz_;
    last_k_ = nz_ - 1;
    std::copy_n(column, nz_, ring_.data() + slot_ * ny_ * nz_ + last_column_);
    next_column();
    return complete;
  }

  /// The window centred one plane and one column behind the last value
  /// consumed, at padded height ck. Valid while the centre's neighbourhood
  /// has been consumed and not yet overwritten, i.e. for the windows the
  /// last advance()/advance_column() reported complete.
  View column_window(std::size_t ck) const noexcept {
    const T* const base = ring_.data() + last_column_ - nz_ + ck;
    const std::size_t plane = ny_ * nz_;
    const std::size_t newest = last_slot_;
    const std::size_t middle = newest == 0 ? 2 : newest - 1;
    const std::size_t oldest = middle == 0 ? 2 : middle - 1;
    return {{base + oldest * plane, base + middle * plane,
             base + newest * plane},
            static_cast<std::ptrdiff_t>(nz_)};
  }

  /// The window centred one plane/column/cell behind the last value
  /// consumed. Complete whenever the last advance() returned true.
  View window() const noexcept { return column_window(last_k_ - 1); }

  /// A completed stencil, centred on padded coordinates (ci, cj, ck).
  /// The centre is always one plane/column/cell behind the raster input.
  struct Output {
    advect::Stencil27T<T> stencil;
    std::size_t ci = 0;
    std::size_t cj = 0;
    std::size_t ck = 0;
  };

  /// advance() plus a copy of the completed window and its centre — the
  /// form the cycle-level stages and vendor frontends pass through FIFOs.
  std::optional<Output> push(T value) {
    const std::size_t i = in_i_;
    const std::size_t j = in_j_;
    const std::size_t k = in_k_;
    if (!advance(value)) {
      return std::nullopt;
    }
    return Output{window().stencil(), i - 1, j - 1, k - 1};
  }

  /// Whether the *next* advance/push completes a window — lets a
  /// cycle-level stage check output-FIFO space before consuming its input.
  bool next_would_emit() const noexcept {
    return in_i_ >= 2 && in_j_ >= 2 && in_k_ >= 2;
  }

  /// Restarts the raster (between chunks). Contents need not be cleared
  /// for correctness (the emission guard covers it); clearing keeps runs
  /// reproducible.
  void reset() {
    in_i_ = in_j_ = in_k_ = 0;
    slot_ = last_slot_ = last_column_ = last_k_ = 0;
    ring_.assign(ring_.size(), T{});
  }

  std::size_t ny_padded() const noexcept { return ny_; }
  std::size_t nz_padded() const noexcept { return nz_; }

  /// Fig. 3 on-chip storage in values, for the FPGA resource estimator:
  /// 3 slices of the Y–Z face (the ring holds exactly these).
  std::size_t slab_doubles() const noexcept { return 3 * ny_ * nz_; }
  /// 3 slices x 3-wide Y window x Z column (read in place from the ring
  /// on the host).
  std::size_t window_doubles() const noexcept { return 3 * 3 * nz_; }
  /// 3 slices x 3x3 registers (likewise read in place on the host).
  static constexpr std::size_t register_doubles() noexcept { return 27; }

private:
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  // Raster position of the *incoming* value, in padded coordinates, and
  // the ring slot (in_i_ mod 3) of its plane.
  std::size_t in_i_ = 0;
  std::size_t in_j_ = 0;
  std::size_t in_k_ = 0;
  std::size_t slot_ = 0;
  // Where the last value consumed went: its plane's slot, its column's
  // offset within the plane and its height.
  std::size_t last_slot_ = 0;
  std::size_t last_column_ = 0;
  std::size_t last_k_ = 0;

  // Three x-planes, flattened [slot][j][k]; plane i lives in slot i mod 3.
  std::vector<T> ring_;

  void next_column() {
    if (++in_j_ == ny_) {
      in_j_ = 0;
      ++in_i_;
      slot_ = slot_ == 2 ? 0 : slot_ + 1;
    }
  }
};

using ShiftBuffer3D = BasicShiftBuffer3D<double>;

/// Convenience bundle: one shift buffer per wind field, fed with a
/// (u, v, w) triple per cycle, emitting the CellStencils the replicate
/// stages fan out (paper Fig. 2).
template <typename T>
class BasicTripleShiftBuffer {
public:
  BasicTripleShiftBuffer(std::size_t ny_padded, std::size_t nz_padded)
      : u_(ny_padded, nz_padded),
        v_(ny_padded, nz_padded),
        w_(ny_padded, nz_padded) {}

  struct Output {
    advect::CellStencilsT<T> stencils;
    std::size_t ci = 0, cj = 0, ck = 0;
  };

  std::optional<Output> push(T u, T v, T w) {
    auto ou = u_.push(u);
    v_.advance(v);
    w_.advance(w);
    if (!ou) {
      return std::nullopt;
    }
    return Output{{ou->stencil, v_.window().stencil(), w_.window().stencil()},
                  ou->ci, ou->cj, ou->ck};
  }

  bool next_would_emit() const noexcept { return u_.next_would_emit(); }

  void reset() {
    u_.reset();
    v_.reset();
    w_.reset();
  }

  std::size_t total_doubles() const noexcept {
    return 3 * (u_.slab_doubles() + u_.window_doubles() +
                BasicShiftBuffer3D<T>::register_doubles());
  }

private:
  BasicShiftBuffer3D<T> u_;
  BasicShiftBuffer3D<T> v_;
  BasicShiftBuffer3D<T> w_;
};

using TripleShiftBuffer = BasicTripleShiftBuffer<double>;

// Common instantiations live in shift_buffer.cpp.
extern template class BasicShiftBuffer3D<double>;
extern template class BasicShiftBuffer3D<float>;
extern template class BasicTripleShiftBuffer<double>;
extern template class BasicTripleShiftBuffer<float>;

}  // namespace pw::kernel
