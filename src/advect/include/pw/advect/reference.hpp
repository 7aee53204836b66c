#pragma once

#include "pw/advect/coefficients.hpp"
#include "pw/grid/field3d.hpp"
#include "pw/grid/init.hpp"

namespace pw::advect {

/// The computed source terms (tendencies) for the three wind fields.
struct SourceTerms {
  grid::FieldD su;
  grid::FieldD sv;
  grid::FieldD sw;

  explicit SourceTerms(grid::GridDims dims, std::size_t halo = 1)
      : su(dims, halo), sv(dims, halo), sw(dims, halo) {}
};

/// Straightforward serial translation of the MONC Fortran PW advection
/// (paper Listing 1, extended to all three fields). This is the functional
/// oracle every other implementation is tested against.
void advect_reference(const grid::WindState& state, const PwCoefficients& c,
                      SourceTerms& out);

/// The check every advect_reference form runs first: throws
/// std::invalid_argument unless the wind and source fields share one shape,
/// every per-level coefficient vector has nz entries and the halo is >= 1.
void check_shapes(const grid::WindState& state, const PwCoefficients& c,
                  const SourceTerms& out);

/// advect_reference's loop restricted to the interior x-planes
/// [x_begin, x_end), without the shape check — the slice each pool worker
/// of CpuAdvectorBaseline runs after one check_shapes on the caller.
void advect_reference_x_range(const grid::WindState& state,
                              const PwCoefficients& c, SourceTerms& out,
                              std::size_t x_begin, std::size_t x_end);

/// As advect_reference but gathering each cell's full 27-point stencils
/// first (the access pattern the shift buffer produces). Exists to prove
/// the stencil formulation is bit-identical to direct field indexing.
void advect_reference_stencil(const grid::WindState& state,
                              const PwCoefficients& c, SourceTerms& out);

}  // namespace pw::advect
