#include "checks.hpp"

#include "pw/advect/reference.hpp"
#include "pw/grid/compare.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"

namespace perfbench {

pw::advect::SourceTerms reference_terms(const pw::api::SolveRequest& request) {
  const pw::grid::WindState& state = *request.state;
  pw::advect::SourceTerms out(state.u.dims());
  const pw::api::KernelSpec& kernel = request.options.kernel_spec;
  switch (kernel.kernel()) {
    case pw::api::Kernel::kAdvectPw:
      pw::advect::advect_reference(state, *request.coefficients, out);
      break;
    case pw::api::Kernel::kDiffusion:
      pw::stencil::diffusion_reference(
          state, *kernel.get_if<pw::api::DiffusionOptions>(), out);
      break;
    case pw::api::Kernel::kPoissonJacobi:
      pw::stencil::poisson_reference(
          state, *kernel.get_if<pw::api::PoissonOptions>(), out);
      break;
  }
  return out;
}

bool uses_f32_path(const pw::api::SolverOptions& options) {
  return options.backend.backend() == pw::api::Backend::kVectorized &&
         options.kernel_spec.kernel() == pw::api::Kernel::kAdvectPw;
}

bool matches_reference(const pw::advect::SourceTerms& expected,
                       const pw::advect::SourceTerms& got, bool f32_path) {
  if (!(expected.su.dims() == got.su.dims())) {
    return false;
  }
  for (const auto field : {&pw::advect::SourceTerms::su,
                           &pw::advect::SourceTerms::sv,
                           &pw::advect::SourceTerms::sw}) {
    const pw::grid::FieldDiff diff =
        pw::grid::compare_interior(expected.*field, got.*field);
    if (f32_path ? !(diff.max_abs < 1e-3) : !diff.bit_equal()) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
