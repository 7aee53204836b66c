#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pw/advect/scheme.hpp"
#include "pw/hls/pragmas.hpp"

namespace pw::kernel {

/// The paper's general-purpose 3D shift buffer (Fig. 3).
///
/// One grid value is consumed per cycle, streamed in raster order (z
/// fastest, then y, then x — the order the *read data* stage produces), and
/// once filled the buffer emits one complete 27-point stencil per cycle.
///
/// Three cooperating structures, exactly as the paper describes:
///  * `slab_`  — the 3-deep X window over the full (padded) Y–Z face. The
///    incoming value replaces the top slice's cell and the displaced values
///    cascade to the lower slices: one read + one write per slice per cycle,
///    compatible with dual-ported on-chip BRAM.
///  * `window_` — per slice, a 3-wide Y window over the Z column. Each row
///    holds the 3 most recent y-columns at one z; rows are stored as a
///    single 3-value element so the per-cycle traffic is one read + one
///    write (this is the array the Intel port had to split into separate
///    banks to reach II=1, paper §III.B).
///  * `regs_` — per slice, a 3x3 register window shifting in Z; registers in
///    both Vitis and Quartus, no partitioning needed. Stored in window
///    order, so the completed window is read in place (`window()`).
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
  /// `ny_padded`/`nz_padded` include the 1-deep halo on each side (>= 3).
  BasicShiftBuffer3D(std::size_t ny_padded, std::size_t nz_padded)
      : ny_(ny_padded), nz_(nz_padded) {
    if (ny_ < 3 || nz_ < 3) {
      throw std::invalid_argument(
          "ShiftBuffer3D: padded face must be at least 3x3");
    }
    PW_HLS_ARRAY_PARTITION(slab_, complete, 3, 1);     // one array per slice
    PW_HLS_ARRAY_PARTITION(window_, complete, 3, 1);   // ditto (the Intel
    // port needed the equivalent manual split to reach II=1, paper SIII.B)
    PW_HLS_BIND_STORAGE(slab_, bram);  // URAM costs II=2 (paper SIII.A)
    slab_.assign(3 * ny_ * nz_, T{});
    window_.assign(3 * nz_, {T{}, T{}, T{}});
  }

  /// Consumes the next raster value in place. Returns true when window()
  /// now holds a complete stencil (i.e. from the third plane onwards, for
  /// centres away from the raster edges). Because the padded face is the
  /// interior plus a 1-deep halo, every completed window is centred on an
  /// interior cell and the count of completions is exactly interior_cells —
  /// no caller-side filtering is needed.
  bool advance(T value) {
    PW_HLS_PIPELINE_II(1);
    const std::size_t j = in_j_;
    const std::size_t k = in_k_;
    const bool complete = next_would_emit();

    // 1. X shift: the new value replaces the top slice's cell, displaced
    //    values cascade to the older slices (blue -> orange -> green in the
    //    paper's Fig. 3). One read + one write per slice.
    const T from_top = slab_at(0, j, k);
    slab_at(0, j, k) = value;
    const T from_mid = slab_at(1, j, k);
    slab_at(1, j, k) = from_top;
    slab_at(2, j, k) = from_mid;

    // 2. Y shift: each slice's freshly written cell enters that slice's
    //    3-wide column window at height k. The 3-tuple row is one element,
    //    so this is one read + one write on the 2D array.
    // 3. Z shift: the 3-tuple is pushed into the slice's 3x3 registers.
    //    Slice s holds plane (in_i - s), i.e. x offset 1 - s from the
    //    centre plane (in_i - 1): window row 2 - s.
    const T incoming[3] = {value, from_top, from_mid};
    for (std::size_t s = 0; s < 3; ++s) {
      auto& row = window_at(s, k);
      row = {row[1], row[2], incoming[s]};
      auto& reg = regs_.v[2 - s];
      for (std::size_t y = 0; y < 3; ++y) {
        reg[y][0] = reg[y][1];
        reg[y][1] = reg[y][2];
        reg[y][2] = row[y];
      }
    }

    advance_raster();
    return complete;
  }

  /// The 27-point window the registers hold, indexed (dx, dy, dz) around
  /// the centre one plane/column/cell behind the last value consumed.
  /// Complete whenever the last advance() returned true.
  const advect::Stencil27T<T>& window() const noexcept { return regs_; }

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
    return Output{regs_, i - 1, j - 1, k - 1};
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
    slab_.assign(slab_.size(), T{});
    window_.assign(window_.size(), {T{}, T{}, T{}});
    regs_ = {};
  }

  std::size_t ny_padded() const noexcept { return ny_; }
  std::size_t nz_padded() const noexcept { return nz_; }

  /// On-chip storage in values, for the FPGA resource estimator:
  /// 3 slices of the Y–Z face.
  std::size_t slab_doubles() const noexcept { return 3 * ny_ * nz_; }
  /// 3 slices x 3-wide Y window x Z column.
  std::size_t window_doubles() const noexcept { return 3 * 3 * nz_; }
  /// 3 slices x 3x3 registers.
  static constexpr std::size_t register_doubles() noexcept { return 27; }

private:
  std::size_t ny_ = 0;
  std::size_t nz_ = 0;
  // Raster position of the *incoming* value, in padded coordinates.
  std::size_t in_i_ = 0;
  std::size_t in_j_ = 0;
  std::size_t in_k_ = 0;

  // slab_[s] holds plane (in_i_ - s); flattened [s][j][k].
  std::vector<T> slab_;
  // window_[s][k] = the 3 most recent y-columns' values at height k for
  // slice s; [0] oldest (y-2), [2] newest (y).
  std::vector<std::array<T, 3>> window_;
  // The window in (dx, dy, dz) order; z index 2 is the newest (deepest)
  // value.
  advect::Stencil27T<T> regs_{};

  T& slab_at(std::size_t s, std::size_t j, std::size_t k) {
    return slab_[(s * ny_ + j) * nz_ + k];
  }
  std::array<T, 3>& window_at(std::size_t s, std::size_t k) {
    return window_[s * nz_ + k];
  }

  void advance_raster() {
    if (++in_k_ == nz_) {
      in_k_ = 0;
      if (++in_j_ == ny_) {
        in_j_ = 0;
        ++in_i_;
      }
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
    return Output{{ou->stencil, v_.window(), w_.window()}, ou->ci, ou->cj,
                  ou->ck};
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
