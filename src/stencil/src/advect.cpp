#include "pw/stencil/advect.hpp"

#include "pw/advect/flops.hpp"

namespace pw::stencil {

const StencilSpec& advect_spec() {
  static const StencilSpec spec = [] {
    StencilSpec s;
    s.name = "advect_pw";
    s.description =
        "Piacsek-Williams advection of the three wind fields (paper Fig. 2)";
    s.radius = 1;
    s.points = 27;
    s.fields_in = AdvectOp::kFieldsIn;
    s.fields_out = AdvectOp::kFieldsOut;
    s.flops_per_cell = static_cast<double>(advect::kFlopsPerCell);
    s.sweeps = 1;
    s.boundary = BoundaryRule::kPeriodicXY_RigidZ;
    return s;
  }();
  return spec;
}

PassStats run_advect(const grid::WindState& state,
                     const advect::PwCoefficients& coefficients,
                     advect::SourceTerms& out, const EngineConfig& config) {
  return run_pass(advect_spec(), state, out,
                  AdvectOp(coefficients, state.u.dims().nz), config);
}

}  // namespace pw::stencil
