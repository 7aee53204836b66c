#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "pw/grid/geometry.hpp"

namespace pw::grid {

/// A non-owning view of a field in Field3D's layout: a pointer to interior
/// cell (0, 0, 0), the interior dims, the halo depth and the element
/// strides between neighbouring x-planes and y-columns (z is contiguous).
/// T is `const double` for a read-only view. The passes read and write
/// fields through these, so one pass runs over a whole Field3D (view()) or
/// over an X-slab of one held in a device buffer.
template <typename T>
struct FieldView {
  T* origin = nullptr;
  GridDims dims;
  std::size_t halo = 0;
  std::ptrdiff_t stride_i = 0;
  std::ptrdiff_t stride_j = 0;

  /// Signed access including halos; i/j/k in [-halo, n+halo). On a view
  /// whose origin is a cell, at(dx, dy, dz) reads that cell's neighbours.
  T& at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) const {
    return origin[i * stride_i + j * stride_j + k];
  }
  T& centre() const { return *origin; }
};

/// A 3D field in MONC memory layout: z (k) fastest, then y (j), then x (i),
/// with a halo of configurable depth on every face. Interior indices run
/// [0, n); halo indices extend to [-halo, n + halo).
///
/// The PW advection scheme is a depth-1 stencil, so the default halo is 1.
template <typename T>
class Field3D {
public:
  Field3D() = default;

  Field3D(GridDims dims, std::size_t halo = 1, T fill = T{})
      : dims_(dims), halo_(halo) {
    if (dims.nx == 0 || dims.ny == 0 || dims.nz == 0) {
      throw std::invalid_argument("Field3D: zero-sized dimension");
    }
    stride_k_ = 1;
    stride_j_ = dims.nz + 2 * halo;
    stride_i_ = stride_j_ * (dims.ny + 2 * halo);
    data_.assign(stride_i_ * (dims.nx + 2 * halo), fill);
  }

  GridDims dims() const noexcept { return dims_; }
  std::size_t nx() const noexcept { return dims_.nx; }
  std::size_t ny() const noexcept { return dims_.ny; }
  std::size_t nz() const noexcept { return dims_.nz; }
  std::size_t halo() const noexcept { return halo_; }
  std::size_t cells() const noexcept { return dims_.cells(); }
  std::size_t bytes_interior() const noexcept { return cells() * sizeof(T); }

  /// The whole field as a view, halos included.
  FieldView<T> view() noexcept { return view_of(data_.data()); }
  FieldView<const T> view() const noexcept { return view_of(data_.data()); }

  /// Signed access including halos; i/j/k in [-halo, n+halo).
  T& at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return data_[offset(i, j, k)];
  }
  const T& at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) const {
    return data_[offset(i, j, k)];
  }

  T& operator()(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return at(i, j, k);
  }
  const T& operator()(std::ptrdiff_t i, std::ptrdiff_t j,
                      std::ptrdiff_t k) const {
    return at(i, j, k);
  }

  /// Bounds-checked access (throws std::out_of_range); used in tests.
  T& checked(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    check(i, j, k);
    return at(i, j, k);
  }
  const T& checked(std::ptrdiff_t i, std::ptrdiff_t j,
                   std::ptrdiff_t k) const {
    check(i, j, k);
    return at(i, j, k);
  }

  std::span<T> raw() noexcept { return data_; }
  std::span<const T> raw() const noexcept { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  /// Fills the six halo shells (not interior) with `value`.
  void fill_halo(T value) {
    const auto h = static_cast<std::ptrdiff_t>(halo_);
    const auto nx = static_cast<std::ptrdiff_t>(dims_.nx);
    const auto ny = static_cast<std::ptrdiff_t>(dims_.ny);
    const auto nz = static_cast<std::ptrdiff_t>(dims_.nz);
    for (std::ptrdiff_t i = -h; i < nx + h; ++i) {
      for (std::ptrdiff_t j = -h; j < ny + h; ++j) {
        for (std::ptrdiff_t k = -h; k < nz + h; ++k) {
          const bool interior =
              i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz;
          if (!interior) {
            at(i, j, k) = value;
          }
        }
      }
    }
  }

  /// Copies interior boundary planes into the opposite halos in x and y
  /// (periodic horizontal boundaries, the MONC default for idealised runs).
  /// z halos are left untouched (rigid lid / surface handled by the scheme).
  void exchange_halo_periodic_xy() {
    const auto h = static_cast<std::ptrdiff_t>(halo_);
    const auto nx = static_cast<std::ptrdiff_t>(dims_.nx);
    const auto ny = static_cast<std::ptrdiff_t>(dims_.ny);
    const auto nz = static_cast<std::ptrdiff_t>(dims_.nz);
    for (std::ptrdiff_t d = 1; d <= h; ++d) {
      for (std::ptrdiff_t j = -h; j < ny + h; ++j) {
        for (std::ptrdiff_t k = -h; k < nz + h; ++k) {
          at(-d, j, k) = at(nx - d, j, k);
          at(nx + d - 1, j, k) = at(d - 1, j, k);
        }
      }
    }
    for (std::ptrdiff_t i = -h; i < nx + h; ++i) {
      for (std::ptrdiff_t d = 1; d <= h; ++d) {
        for (std::ptrdiff_t k = -h; k < nz + h; ++k) {
          at(i, -d, k) = at(i, ny - d, k);
          at(i, ny + d - 1, k) = at(i, d - 1, k);
        }
      }
    }
  }

  bool same_shape(const Field3D& other) const noexcept {
    return dims_ == other.dims_ && halo_ == other.halo_;
  }

private:
  template <typename V>
  FieldView<V> view_of(V* data) const noexcept {
    return {data + offset(0, 0, 0), dims_, halo_,
            static_cast<std::ptrdiff_t>(stride_i_),
            static_cast<std::ptrdiff_t>(stride_j_)};
  }

  std::size_t offset(std::ptrdiff_t i, std::ptrdiff_t j,
                     std::ptrdiff_t k) const noexcept {
    const auto h = static_cast<std::ptrdiff_t>(halo_);
    return static_cast<std::size_t>((i + h)) * stride_i_ +
           static_cast<std::size_t>((j + h)) * stride_j_ +
           static_cast<std::size_t>((k + h)) * stride_k_;
  }

  void check(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) const {
    const auto h = static_cast<std::ptrdiff_t>(halo_);
    if (i < -h || i >= static_cast<std::ptrdiff_t>(dims_.nx) + h ||
        j < -h || j >= static_cast<std::ptrdiff_t>(dims_.ny) + h ||
        k < -h || k >= static_cast<std::ptrdiff_t>(dims_.nz) + h) {
      throw std::out_of_range("Field3D index outside halo extent");
    }
  }

  GridDims dims_;
  std::size_t halo_ = 0;
  std::size_t stride_i_ = 0;
  std::size_t stride_j_ = 0;
  std::size_t stride_k_ = 0;
  std::vector<T> data_;
};

using FieldD = Field3D<double>;
using FieldF = Field3D<float>;

}  // namespace pw::grid
