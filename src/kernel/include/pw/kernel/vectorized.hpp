#pragma once

#include <cstddef>
#include <optional>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/config.hpp"

namespace pw::kernel {

/// Functional prototype of the paper's §V Versal sketch: the shift buffer
/// lives in the fabric and emits stencils as before, but the advection
/// arithmetic is executed in single-precision *vector batches* of `Lanes`
/// cells — the execution style of an AI engine consuming a stream of
/// stencil vectors (8 SP lanes per cycle on Versal).
///
/// Numerically this is the float32 datapath (inputs cast at the read
/// stage, results widened at the write stage): one pass_streaming<float>
/// over BasicAdvectOp<float>, so the output is bit-identical to the scalar
/// float32 kernel — asserted by tests. The lanes are accounting only: each
/// Y-chunk issues (chunk cells / lanes) full batches and drains the
/// remainder at its boundary, as the AI engine would; on the host the
/// cells are computed one by one in column order.
struct VectorizedStats {
  KernelRunStats kernel;
  std::size_t batches = 0;         ///< full vector batches issued
  std::size_t remainder_cells = 0; ///< tail cells processed scalar
};

VectorizedStats run_kernel_vectorized_f32(
    const grid::WindState& state,
    const advect::PwCoefficients& coefficients, advect::SourceTerms& out,
    const KernelConfig& config, std::size_t lanes = 8);

}  // namespace pw::kernel
