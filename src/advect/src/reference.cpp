#include "pw/advect/reference.hpp"

#include <stdexcept>

#include "pw/advect/scheme.hpp"

namespace pw::advect {

void check_shapes(const grid::WindState& state, const PwCoefficients& c,
                  const SourceTerms& out) {
  if (!state.u.same_shape(out.su) || !state.u.same_shape(state.v) ||
      !state.u.same_shape(state.w) || !state.u.same_shape(out.sv) ||
      !state.u.same_shape(out.sw)) {
    throw std::invalid_argument("advect: field shape mismatch");
  }
  const std::size_t nz = state.u.nz();
  if (c.tzc1.size() != nz || c.tzc2.size() != nz || c.tzd1.size() != nz ||
      c.tzd2.size() != nz) {
    throw std::invalid_argument("advect: coefficient levels != nz");
  }
  if (state.u.halo() < 1) {
    throw std::invalid_argument("advect: PW scheme needs a halo of >= 1");
  }
}

namespace {

ZCoeffs z_coeffs(const PwCoefficients& c, std::size_t k) {
  return {c.tzc1[k], c.tzc2[k], c.tzd1[k], c.tzd2[k]};
}

void gather(const grid::FieldD& f, std::ptrdiff_t i, std::ptrdiff_t j,
            std::ptrdiff_t k, Stencil27& s) {
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        s.at(dx, dy, dz) = f.at(i + dx, j + dy, k + dz);
      }
    }
  }
}

}  // namespace

void advect_reference(const grid::WindState& state, const PwCoefficients& c,
                      SourceTerms& out) {
  check_shapes(state, c, out);
  advect_reference_x_range(state, c, out, 0, state.u.nx());
}

void advect_reference_x_range(const grid::WindState& state,
                              const PwCoefficients& c, SourceTerms& out,
                              std::size_t x_begin, std::size_t x_end) {
  const auto ny = static_cast<std::ptrdiff_t>(state.u.ny());
  const auto nz = static_cast<std::ptrdiff_t>(state.u.nz());
  const auto& u = state.u;
  const auto& v = state.v;
  const auto& w = state.w;

  for (auto i = static_cast<std::ptrdiff_t>(x_begin);
       i < static_cast<std::ptrdiff_t>(x_end); ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      for (std::ptrdiff_t k = 0; k < nz; ++k) {
        const bool top = k == nz - 1;
        const ZCoeffs z = z_coeffs(c, static_cast<std::size_t>(k));

        double su =
            c.tcx * (u.at(i - 1, j, k) * (u.at(i, j, k) + u.at(i - 1, j, k)) -
                     u.at(i + 1, j, k) * (u.at(i, j, k) + u.at(i + 1, j, k)));
        su += c.tcy *
              (u.at(i, j - 1, k) * (v.at(i, j - 1, k) + v.at(i + 1, j - 1, k)) -
               u.at(i, j + 1, k) * (v.at(i, j, k) + v.at(i + 1, j, k)));
        if (top) {
          su += z.tzc1 * u.at(i, j, k - 1) *
                (w.at(i, j, k - 1) + w.at(i + 1, j, k - 1));
        } else {
          su += z.tzc1 * u.at(i, j, k - 1) *
                    (w.at(i, j, k - 1) + w.at(i + 1, j, k - 1)) -
                z.tzc2 * u.at(i, j, k + 1) *
                    (w.at(i, j, k) + w.at(i + 1, j, k));
        }
        out.su.at(i, j, k) = su;

        double sv =
            c.tcx *
            (v.at(i - 1, j, k) * (u.at(i - 1, j, k) + u.at(i - 1, j + 1, k)) -
             v.at(i + 1, j, k) * (u.at(i, j, k) + u.at(i, j + 1, k)));
        sv += c.tcy *
              (v.at(i, j - 1, k) * (v.at(i, j, k) + v.at(i, j - 1, k)) -
               v.at(i, j + 1, k) * (v.at(i, j, k) + v.at(i, j + 1, k)));
        if (top) {
          sv += z.tzc1 * v.at(i, j, k - 1) *
                (w.at(i, j, k - 1) + w.at(i, j + 1, k - 1));
        } else {
          sv += z.tzc1 * v.at(i, j, k - 1) *
                    (w.at(i, j, k - 1) + w.at(i, j + 1, k - 1)) -
                z.tzc2 * v.at(i, j, k + 1) *
                    (w.at(i, j, k) + w.at(i, j + 1, k));
        }
        out.sv.at(i, j, k) = sv;

        double sw =
            c.tcx *
            (w.at(i - 1, j, k) * (u.at(i - 1, j, k) + u.at(i - 1, j, k + 1)) -
             w.at(i + 1, j, k) * (u.at(i, j, k) + u.at(i, j, k + 1)));
        sw += c.tcy *
              (w.at(i, j - 1, k) * (v.at(i, j - 1, k) + v.at(i, j - 1, k + 1)) -
               w.at(i, j + 1, k) * (v.at(i, j, k) + v.at(i, j, k + 1)));
        sw += z.tzd1 * w.at(i, j, k - 1) *
                  (w.at(i, j, k) + w.at(i, j, k - 1)) -
              z.tzd2 * w.at(i, j, k + 1) * (w.at(i, j, k) + w.at(i, j, k + 1));
        out.sw.at(i, j, k) = sw;
      }
    }
  }
}

void advect_reference_stencil(const grid::WindState& state,
                              const PwCoefficients& c, SourceTerms& out) {
  check_shapes(state, c, out);
  const auto nx = static_cast<std::ptrdiff_t>(state.u.nx());
  const auto ny = static_cast<std::ptrdiff_t>(state.u.ny());
  const auto nz = static_cast<std::ptrdiff_t>(state.u.nz());

  CellStencils s;
  for (std::ptrdiff_t i = 0; i < nx; ++i) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      for (std::ptrdiff_t k = 0; k < nz; ++k) {
        gather(state.u, i, j, k, s.u);
        gather(state.v, i, j, k, s.v);
        gather(state.w, i, j, k, s.w);
        const bool top = k == nz - 1;
        const CellSources src =
            advect_cell(s, c.tcx, c.tcy, z_coeffs(c, static_cast<std::size_t>(k)), top);
        out.su.at(i, j, k) = src.su;
        out.sv.at(i, j, k) = src.sv;
        out.sw.at(i, j, k) = src.sw;
      }
    }
  }
}

}  // namespace pw::advect
