#include "pw/stencil/poisson.hpp"

#include <algorithm>
#include <utility>

namespace pw::stencil {

const StencilSpec& poisson_spec() {
  static const StencilSpec spec = [] {
    StencilSpec s;
    s.name = "poisson_jacobi";
    s.description =
        "Jacobi iteration for lap(u) = rhs with Dirichlet-zero boundaries";
    s.radius = 1;
    s.points = 7;
    s.fields_in = PoissonOp::kFieldsIn;
    s.fields_out = PoissonOp::kFieldsOut;
    s.flops_per_cell = kPoissonFlopsPerCell;
    s.sweeps = 8;  // representative; per-request iterations override it
    s.boundary = BoundaryRule::kDirichletZero;
    return s;
  }();
  return spec;
}

namespace {

/// Interior-only copy, one contiguous z-column per (i, j); halos of `dst`
/// are left untouched (they stay at the Dirichlet zero every field is
/// built with).
void copy_interior(const grid::FieldD& src, grid::FieldD& dst) {
  const grid::GridDims dims = src.dims();
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(dims.nx); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(dims.ny);
         ++j) {
      std::copy_n(&src.at(i, j, 0), dims.nz, &dst.at(i, j, 0));
    }
  }
}

}  // namespace

void poisson_reference(const grid::WindState& state,
                       const PoissonParams& params, advect::SourceTerms& out) {
  const grid::GridDims dims = state.u.dims();
  const PoissonOp op(params);
  // Ping-pong guess buffers with Dirichlet-zero halos: freshly constructed
  // fields are all-zero, and only interiors are ever written.
  grid::FieldD guess(dims, state.u.halo());
  grid::FieldD next(dims, state.u.halo());
  copy_interior(state.u, guess);

  const std::size_t iterations = std::max<std::size_t>(1, params.iterations);
  for (std::size_t sweep = 0; sweep < iterations; ++sweep) {
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(dims.nx);
         ++i) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(dims.ny);
           ++j) {
        for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(dims.nz);
             ++k) {
          // The exact PoissonOp expression over direct reads of the current
          // guess and rhs — bit-identical to the machine engines.
          const double sum =
              (guess.at(i - 1, j, k) + guess.at(i + 1, j, k)) * op.cx +
              (guess.at(i, j - 1, k) + guess.at(i, j + 1, k)) * op.cy +
              (guess.at(i, j, k - 1) + guess.at(i, j, k + 1)) * op.cz;
          next.at(i, j, k) = (sum - state.v.at(i, j, k)) * op.inv_diag;
        }
      }
    }
    std::swap(guess, next);
  }
  copy_interior(guess, out.su);
  out.sv.fill(0.0);
  out.sw.fill(0.0);
}

PassStats run_poisson_sweep(const grid::WindState& state,
                            const PoissonParams& params,
                            advect::SourceTerms& out,
                            const EngineConfig& config) {
  return run_pass(poisson_spec(), state, out, PoissonOp(params), config);
}

PassStats run_poisson(const grid::WindState& state,
                      const PoissonParams& params, advect::SourceTerms& out,
                      const PoissonSweep& sweep) {
  // The guesses' halos are zero already (see the header's contract), and
  // each sweep writes its target's whole interior before the next reads it.
  grid::FieldD* guess = &out.sv;
  grid::FieldD* next = &out.sw;
  copy_interior(state.u, *guess);

  PassStats total;
  const std::size_t iterations = std::max<std::size_t>(1, params.iterations);
  for (std::size_t s = 0; s < iterations; ++s) {
    grid::FieldD& target = s + 1 == iterations ? out.su : *next;
    total += sweep({std::as_const(*guess).view(), state.v.view()},
                   {target.view()});
    std::swap(guess, next);
  }
  out.sv.fill(0.0);
  out.sw.fill(0.0);
  return total;
}

PassStats run_poisson(const grid::WindState& state,
                      const PoissonParams& params, advect::SourceTerms& out,
                      const EngineConfig& config) {
  const PoissonOp op(params);
  return run_poisson(state, params, out,
                     [&](const kernel::InViews<2>& in,
                         const kernel::OutViews<1>& next) {
                       return run_pass(poisson_spec(), in, next, op, config);
                     });
}

}  // namespace pw::stencil
