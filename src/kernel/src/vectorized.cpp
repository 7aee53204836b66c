#include "pw/kernel/vectorized.hpp"

#include <stdexcept>

#include "pw/kernel/chunking.hpp"
#include "pw/kernel/fused.hpp"

namespace pw::kernel {

VectorizedStats run_kernel_vectorized_f32(
    const grid::WindState& state, const advect::PwCoefficients& c,
    advect::SourceTerms& out, const KernelConfig& config,
    std::size_t lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("run_kernel_vectorized_f32: zero lanes");
  }
  const grid::GridDims dims = state.u.dims();
  PassStats pass;
  pass_streaming<float>(inputs<AdvectOp::kFieldsIn>(state),
                        outputs<AdvectOp::kFieldsOut>(out),
                        BasicAdvectOp<float>(c, dims.nz), config.chunk_y,
                        XRange{0, dims.nx}, &pass);

  VectorizedStats stats;
  stats.kernel = {pass.values_streamed, pass.stencils_emitted, pass.chunks};
  // The AI engine issues full vectors of a chunk's cells and drains the
  // partial one at the chunk boundary.
  const ChunkPlan plan(dims, config.chunk_y);
  for (const YChunk& chunk : plan.chunks()) {
    const std::size_t cells = dims.nx * chunk.width() * dims.nz;
    stats.batches += cells / lanes;
    stats.remainder_cells += cells % lanes;
  }
  return stats;
}

}  // namespace pw::kernel
