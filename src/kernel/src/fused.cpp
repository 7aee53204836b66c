#include "pw/kernel/fused.hpp"

#include <stdexcept>

namespace pw::kernel {

KernelRunStats run_kernel_fused(const grid::WindState& state,
                                const advect::PwCoefficients& coefficients,
                                advect::SourceTerms& out,
                                const KernelConfig& config,
                                std::optional<XRange> xrange) {
  const grid::GridDims dims = state.u.dims();
  const XRange xr = xrange.value_or(XRange{0, dims.nx});
  if (xr.end > dims.nx || xr.begin >= xr.end) {
    throw std::invalid_argument("run_kernel_fused: bad x-range");
  }
  if (state.u.halo() < 1) {
    throw std::invalid_argument("run_kernel_fused: halo >= 1 required");
  }
  PassStats pass;
  pass_streaming(inputs<AdvectOp::kFieldsIn>(state),
                 outputs<AdvectOp::kFieldsOut>(out),
                 AdvectOp(coefficients, dims.nz), config.chunk_y, xr, &pass);
  return {pass.values_streamed, pass.stencils_emitted, pass.chunks};
}

}  // namespace pw::kernel
