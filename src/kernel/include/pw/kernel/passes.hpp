#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "pw/advect/reference.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/grid/init.hpp"
#include "pw/hls/numeric_cast.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/config.hpp"
#include "pw/kernel/shift_buffer.hpp"

namespace pw::kernel {

/// Grid coordinates of the cell an op is computing (interior, 0-based).
struct CellCtx {
  std::ptrdiff_t i = 0;
  std::ptrdiff_t j = 0;
  std::ptrdiff_t k = 0;
};

/// Per-pass accounting, the stencil counterpart of KernelRunStats. Every
/// count is additive, so partial passes (X slabs, sweeps) sum with +=.
struct PassStats {
  std::uint64_t cells = 0;            ///< interior cells written
  std::uint64_t values_streamed = 0;  ///< raster positions consumed per field
  /// Raster values consumed over every streamed field: values_streamed
  /// times the number of shift buffers the pass fed (the op's kFieldsIn).
  std::uint64_t field_values_streamed = 0;
  std::uint64_t stencils_emitted = 0;  ///< windows completed (fused engines)
  std::uint64_t chunks = 0;

  PassStats& operator+=(const PassStats& other) {
    cells += other.cells;
    values_streamed += other.values_streamed;
    field_values_streamed += other.field_values_streamed;
    stencils_emitted += other.stencils_emitted;
    chunks += other.chunks;
    return *this;
  }
};

/// An op's input: the first N (2 or 3) of the (u, v, w) fields around one
/// cell, each a 27-point neighbourhood `S` with `at(dx, dy, dz)` and
/// `centre()`.
template <typename S, std::size_t N>
struct Window;
template <typename S>
struct Window<S, 2> {
  S u;
  S v;
};
template <typename S>
struct Window<S, 3> {
  S u;
  S v;
  S w;
};

/// What a pass reads and writes: views of an op's kFieldsIn input and
/// kFieldsOut output fields.
template <std::size_t N>
using InViews = std::array<grid::FieldView<const double>, N>;
template <std::size_t N>
using OutViews = std::array<grid::FieldView<double>, N>;

/// An op's inputs over whole fields: views of the first N of (u, v, w).
template <std::size_t N>
InViews<N> inputs(const grid::WindState& state) {
  static_assert(N >= 1 && N <= 3, "ops read 1 to 3 fields");
  const InViews<3> all{state.u.view(), state.v.view(), state.w.view()};
  InViews<N> head{};
  std::copy_n(all.begin(), N, head.begin());
  return head;
}

/// An op's outputs over whole fields: views of the first N of (su, sv, sw).
template <std::size_t N>
OutViews<N> outputs(advect::SourceTerms& out) {
  static_assert(N >= 1 && N <= 3, "ops write 1 to 3 fields");
  const OutViews<3> all{out.su.view(), out.sv.view(), out.sw.view()};
  OutViews<N> head{};
  std::copy_n(all.begin(), N, head.begin());
  return head;
}

namespace detail {

template <std::size_t N, typename FieldStencil, std::size_t... I>
auto make_window(const FieldStencil& field, std::index_sequence<I...>) {
  return Window<decltype(field(std::size_t{0})), N>{field(I)...};
}

/// Window<S, N>{field(0), ..., field(N - 1)}, S being what `field` returns.
template <std::size_t N, typename FieldStencil>
auto make_window(const FieldStencil& field) {
  return make_window<N>(field, std::make_index_sequence<N>{});
}

template <typename T, std::size_t... I>
std::array<BasicShiftBuffer3D<T>, sizeof...(I)> make_buffers(
    std::size_t ny_padded, std::size_t nz_padded, std::index_sequence<I...>) {
  return {((void)I, BasicShiftBuffer3D<T>(ny_padded, nz_padded))...};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The two primitive passes. An Op declares its field arity and maps one
// cell's Window<S, kFieldsIn> to its outputs; a pass reads kFieldsIn input
// views (the window's u, v, w in order) and writes kFieldsOut output views:
//
//   static constexpr std::size_t kFieldsIn;   // 1 to 3 input fields
//   static constexpr std::size_t kFieldsOut;  // 1 to 3 output fields
//   template <typename W>
//   std::array<double, kFieldsOut> operator()(const W&, const CellCtx&) const
//
// (an op for pass_streaming<T> with T other than double returns
// std::array<T, kFieldsOut>: it computes in the buffers' value type).
//
// Both passes hand the op the same values for every cell and the op is one
// template over the view, so every engine is bit-equal to the scalar
// reference that evaluates the op's expression over direct reads.

/// Direct pass: for each interior cell in `xr`, apply the op to strided
/// views of the fields' own storage — no per-cell gather or copy. This is
/// the access pattern of advect_reference, generalised.
template <typename Op>
void pass_direct(const InViews<Op::kFieldsIn>& in,
                 const OutViews<Op::kFieldsOut>& out, const Op& op, XRange xr,
                 PassStats* stats = nullptr) {
  constexpr std::size_t kIn = Op::kFieldsIn;
  constexpr std::size_t kOut = Op::kFieldsOut;
  const auto ny = static_cast<std::ptrdiff_t>(in[0].dims.ny);
  const auto nz = static_cast<std::ptrdiff_t>(in[0].dims.nz);

  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(xr.begin);
       i < static_cast<std::ptrdiff_t>(xr.end); ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      std::array<const double*, kIn> column{};
      for (std::size_t f = 0; f < kIn; ++f) {
        column[f] = &in[f].at(i, j, 0);
      }
      std::array<double*, kOut> dst{};
      for (std::size_t o = 0; o < kOut; ++o) {
        dst[o] = &out[o].at(i, j, 0);
      }
      for (std::ptrdiff_t k = 0; k < nz; ++k) {
        // Each field's view re-centred on the cell: its 27-point
        // neighbourhood read in place, with no gather.
        const auto window = detail::make_window<kIn>([&](std::size_t f) {
          return grid::FieldView<const double>{column[f] + k, in[f].dims,
                                               in[f].halo, in[f].stride_i,
                                               in[f].stride_j};
        });
        const std::array<double, kOut> values = op(window, CellCtx{i, j, k});
        for (std::size_t o = 0; o < kOut; ++o) {
          dst[o][k] = values[o];
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->cells += static_cast<std::uint64_t>(xr.width()) *
                    static_cast<std::uint64_t>(ny * nz);
  }
}

/// Streaming pass: the Fig. 2/3 machine — raster the padded slab through
/// one shift buffer per input field, chunk by chunk and one padded
/// z-column at a time, and apply the op in place to every window a column
/// completes, in k order: the cells, values and order of the per-value
/// machine. Only the op's kFieldsIn fields are streamed and only its
/// kFieldsOut are stored. T is the buffers' value type: for T other than
/// double each column is converted once as it is fed (hls::to_value<T>,
/// the read stage's cast) and the op's results are widened as they are
/// stored (hls::from_value, the write stage's).
template <typename T = double, typename Op>
void pass_streaming(const InViews<Op::kFieldsIn>& in,
                    const OutViews<Op::kFieldsOut>& out, const Op& op,
                    std::size_t chunk_y, XRange xr,
                    PassStats* stats = nullptr) {
  constexpr std::size_t kIn = Op::kFieldsIn;
  constexpr std::size_t kOut = Op::kFieldsOut;
  const grid::GridDims dims = in[0].dims;
  const ChunkPlan plan(dims, chunk_y);
  const auto nz = static_cast<std::ptrdiff_t>(dims.nz);
  const std::size_t nz_padded = dims.nz + 2;
  std::vector<T> converted(std::is_same_v<T, double> ? 0 : nz_padded);

  PassStats pass;
  for (const YChunk& chunk : plan.chunks()) {
    auto buffers = detail::make_buffers<T>(chunk.padded_width(), nz_padded,
                                           std::make_index_sequence<kIn>{});
    const auto x_lo = static_cast<std::ptrdiff_t>(xr.begin) - 1;
    const auto x_hi = static_cast<std::ptrdiff_t>(xr.end) + 1;  // exclusive
    const auto j_lo = static_cast<std::ptrdiff_t>(chunk.j_begin) - 1;
    const auto j_hi = static_cast<std::ptrdiff_t>(chunk.j_end) + 1;

    for (std::ptrdiff_t i = x_lo; i < x_hi; ++i) {
      for (std::ptrdiff_t j = j_lo; j < j_hi; ++j) {
        // Each field's padded z-column, bottom halo to top halo.
        bool complete = false;
        for (std::size_t f = 0; f < kIn; ++f) {
          const double* column = &in[f].at(i, j, -1);
          if constexpr (std::is_same_v<T, double>) {
            complete = buffers[f].advance_column(column);
          } else {
            std::transform(column, column + nz_padded, converted.begin(),
                           hls::to_value<T>);
            complete = buffers[f].advance_column(converted.data());
          }
        }
        if (!complete) {
          continue;
        }
        // The column completed the windows centred one plane and one
        // column behind it at every interior height: the bottom one
        // (padded ck = 1) raised by k.
        std::array<typename BasicShiftBuffer3D<T>::View, kIn> bottom{};
        for (std::size_t f = 0; f < kIn; ++f) {
          bottom[f] = buffers[f].column_window(1);
        }
        std::array<double*, kOut> dst{};
        for (std::size_t o = 0; o < kOut; ++o) {
          dst[o] = &out[o].at(i - 1, j - 1, 0);
        }
        for (std::ptrdiff_t k = 0; k < nz; ++k) {
          const auto window = detail::make_window<kIn>(
              [&](std::size_t f) { return bottom[f].raised(k); });
          const auto values = op(window, CellCtx{i - 1, j - 1, k});
          for (std::size_t o = 0; o < kOut; ++o) {
            dst[o][k] = hls::from_value(values[o]);
          }
        }
        pass.cells += static_cast<std::uint64_t>(nz);
      }
    }
    pass.values_streamed +=
        static_cast<std::uint64_t>((x_hi - x_lo) * (j_hi - j_lo)) * nz_padded;
    ++pass.chunks;
  }
  pass.stencils_emitted = pass.cells;
  pass.field_values_streamed = pass.values_streamed * kIn;
  if (stats != nullptr) {
    *stats += pass;
  }
}

}  // namespace pw::kernel
