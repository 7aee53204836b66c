#pragma once

#include <cstddef>

namespace pw::advect {

/// The 27-point neighbourhood of one grid cell for one field. Indexed
/// [x][y][z] with 0 = minus-one, 1 = centre, 2 = plus-one — exactly the
/// layout the 3D shift buffer (paper Fig. 3) emits each cycle.
///
/// Generic over the value type: `double` is the paper's production
/// configuration; `float` and fixed-point types serve the reduced-precision
/// study of the paper's future-work section (§V).
template <typename T>
struct Stencil27T {
  T v[3][3][3] = {};

  T& at(int dx, int dy, int dz) { return v[dx + 1][dy + 1][dz + 1]; }
  T at(int dx, int dy, int dz) const { return v[dx + 1][dy + 1][dz + 1]; }
  T centre() const { return v[1][1][1]; }
};
using Stencil27 = Stencil27T<double>;

/// The three stencils an advection stage consumes per cell (the output of
/// the replicate stages in the paper's Fig. 2).
template <typename T>
struct CellStencilsT {
  Stencil27T<T> u;
  Stencil27T<T> v;
  Stencil27T<T> w;
};
using CellStencils = CellStencilsT<double>;

/// Per-level z coefficients for one cell.
template <typename T>
struct ZCoeffsT {
  T tzc1{};
  T tzc2{};
  T tzd1{};
  T tzd2{};
};
using ZCoeffs = ZCoeffsT<double>;

// The three source-term cell updates below are the *single* definition of
// the PW arithmetic in this repository. The scalar reference, the threaded
// CPU baseline, both vendor-style dataflow kernels, the stencil machine and
// the reduced-precision variants all inline these functions, so every
// implementation at a given precision is bit-identical by construction (the
// property the functional tests assert).
//
// They are templates over the window `W`: anything with `u`, `v`, `w`
// members whose `at(dx, dy, dz)` reads one field's 27-point neighbourhood —
// a gathered CellStencilsT, a view into the shift buffer's ring, or a
// strided view of the grid's own storage. The arithmetic cannot tell them
// apart, so one definition serves every view.
//
// `top` marks the column-top cell: the U and V terms drop their tzc2
// contribution there (paper Listing 1), reducing the per-cell FLOP count
// from 63 to 55. W keeps its full form; its k+1 neighbour reads the zeroed
// above-lid halo.

/// U source term: 21 FLOPs (17 at the column top).
template <typename T, typename W>
T advect_u_cell(const W& s, T tcx, T tcy, const ZCoeffsT<T>& z, bool top) {
  const auto& u = s.u;
  const auto& v = s.v;
  const auto& w = s.w;
  T su = tcx * (u.at(-1, 0, 0) * (u.at(0, 0, 0) + u.at(-1, 0, 0)) -
                u.at(+1, 0, 0) * (u.at(0, 0, 0) + u.at(+1, 0, 0)));
  su += tcy * (u.at(0, -1, 0) * (v.at(0, -1, 0) + v.at(+1, -1, 0)) -
               u.at(0, +1, 0) * (v.at(0, 0, 0) + v.at(+1, 0, 0)));
  if (top) {
    su += z.tzc1 * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(+1, 0, -1));
  } else {
    su += z.tzc1 * u.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(+1, 0, -1)) -
          z.tzc2 * u.at(0, 0, +1) * (w.at(0, 0, 0) + w.at(+1, 0, 0));
  }
  return su;
}

/// V source term: 21 FLOPs (17 at the column top).
template <typename T, typename W>
T advect_v_cell(const W& s, T tcx, T tcy, const ZCoeffsT<T>& z, bool top) {
  const auto& u = s.u;
  const auto& v = s.v;
  const auto& w = s.w;
  T sv = tcx * (v.at(-1, 0, 0) * (u.at(-1, 0, 0) + u.at(-1, +1, 0)) -
                v.at(+1, 0, 0) * (u.at(0, 0, 0) + u.at(0, +1, 0)));
  sv += tcy * (v.at(0, -1, 0) * (v.at(0, 0, 0) + v.at(0, -1, 0)) -
               v.at(0, +1, 0) * (v.at(0, 0, 0) + v.at(0, +1, 0)));
  if (top) {
    sv += z.tzc1 * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, +1, -1));
  } else {
    sv += z.tzc1 * v.at(0, 0, -1) * (w.at(0, 0, -1) + w.at(0, +1, -1)) -
          z.tzc2 * v.at(0, 0, +1) * (w.at(0, 0, 0) + w.at(0, +1, 0));
  }
  return sv;
}

/// W source term: 21 FLOPs at every level (above-lid neighbours are zero).
template <typename T, typename W>
T advect_w_cell(const W& s, T tcx, T tcy, const ZCoeffsT<T>& z) {
  const auto& u = s.u;
  const auto& v = s.v;
  const auto& w = s.w;
  T sw = tcx * (w.at(-1, 0, 0) * (u.at(-1, 0, 0) + u.at(-1, 0, +1)) -
                w.at(+1, 0, 0) * (u.at(0, 0, 0) + u.at(0, 0, +1)));
  sw += tcy * (w.at(0, -1, 0) * (v.at(0, -1, 0) + v.at(0, -1, +1)) -
               w.at(0, +1, 0) * (v.at(0, 0, 0) + v.at(0, 0, +1)));
  sw += z.tzd1 * w.at(0, 0, -1) * (w.at(0, 0, 0) + w.at(0, 0, -1)) -
        z.tzd2 * w.at(0, 0, +1) * (w.at(0, 0, 0) + w.at(0, 0, +1));
  return sw;
}

/// All three source terms for one cell (the work of the paper's three
/// concurrent advection stages in one call).
template <typename T>
struct CellSourcesT {
  T su{};
  T sv{};
  T sw{};
};
using CellSources = CellSourcesT<double>;

template <typename T, typename W>
CellSourcesT<T> advect_cell(const W& s, T tcx, T tcy, const ZCoeffsT<T>& z,
                            bool top) {
  return {advect_u_cell<T>(s, tcx, tcy, z, top),
          advect_v_cell<T>(s, tcx, tcy, z, top),
          advect_w_cell<T>(s, tcx, tcy, z)};
}

}  // namespace pw::advect
