#include "pw/stencil/diffusion.hpp"

namespace pw::stencil {

const StencilSpec& diffusion_spec() {
  static const StencilSpec spec = [] {
    StencilSpec s;
    s.name = "diffusion";
    s.description =
        "7-point explicit diffusion tendency for all three wind fields";
    s.radius = 1;
    s.points = 7;
    s.fields_in = DiffusionOp::kFieldsIn;
    s.fields_out = DiffusionOp::kFieldsOut;
    s.flops_per_cell = kDiffusionFlopsPerCell;
    s.sweeps = 1;
    s.boundary = BoundaryRule::kPeriodicXY_RigidZ;
    return s;
  }();
  return spec;
}

void diffusion_reference(const grid::WindState& state,
                         const DiffusionParams& params,
                         advect::SourceTerms& out) {
  const grid::GridDims dims = state.u.dims();
  const double cx = params.kappa / (params.dx * params.dx);
  const double cy = params.kappa / (params.dy * params.dy);
  const double cz = params.kappa / (params.dz * params.dz);
  // Direct field reads combined in exactly the expression DiffusionOp::lap
  // evaluates over a gathered stencil: same values, same operation order,
  // bit-identical results on every engine.
  const auto lap = [&](const grid::FieldD& f, std::ptrdiff_t i,
                       std::ptrdiff_t j, std::ptrdiff_t k) {
    const double c = f.at(i, j, k);
    return cx * (f.at(i - 1, j, k) + f.at(i + 1, j, k) - 2.0 * c) +
           cy * (f.at(i, j - 1, k) + f.at(i, j + 1, k) - 2.0 * c) +
           cz * (f.at(i, j, k - 1) + f.at(i, j, k + 1) - 2.0 * c);
  };
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(dims.nx); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(dims.ny);
         ++j) {
      for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(dims.nz);
           ++k) {
        out.su.at(i, j, k) = lap(state.u, i, j, k);
        out.sv.at(i, j, k) = lap(state.v, i, j, k);
        out.sw.at(i, j, k) = lap(state.w, i, j, k);
      }
    }
  }
}

PassStats run_diffusion(const grid::WindState& state,
                        const DiffusionParams& params,
                        advect::SourceTerms& out,
                        const EngineConfig& config) {
  return run_pass(diffusion_spec(), state, out, DiffusionOp(params), config);
}

}  // namespace pw::stencil
