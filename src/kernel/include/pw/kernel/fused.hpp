#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/config.hpp"
#include "pw/kernel/passes.hpp"

namespace pw::kernel {

/// The advection per-cell op on the stencil machine: advect_cell with the
/// per-level Z coefficients looked up from the cell's k. Every advection
/// engine runs this one op (stencil::AdvectOp names the same type), over
/// whichever window view its pass provides.
struct AdvectOp {
  static constexpr std::size_t kFieldsIn = 3;   ///< u, v, w
  static constexpr std::size_t kFieldsOut = 3;  ///< su, sv, sw

  const advect::PwCoefficients* c = nullptr;
  std::ptrdiff_t nz = 0;

  AdvectOp(const advect::PwCoefficients& coefficients, std::size_t levels)
      : c(&coefficients), nz(static_cast<std::ptrdiff_t>(levels)) {}

  template <typename W>
  std::array<double, kFieldsOut> operator()(const W& s,
                                            const CellCtx& cell) const {
    const auto gk = static_cast<std::size_t>(cell.k);
    const advect::ZCoeffs z{c->tzc1[gk], c->tzc2[gk], c->tzd1[gk],
                            c->tzd2[gk]};
    const advect::CellSources sources =
        advect::advect_cell(s, c->tcx, c->tcy, z, cell.k == nz - 1);
    return {sources.su, sources.sv, sources.sw};
  }
};

/// Single-threaded execution of the full dataflow design: a forwarder onto
/// the machine's streaming pass with AdvectOp (the loop every streaming
/// engine runs), kept for callers that want KernelRunStats. `xrange`
/// restricts it to a slab of interior x-planes; nullopt means the whole
/// domain. Throws std::invalid_argument on an empty or out-of-grid x-range
/// or a halo below 1.
KernelRunStats run_kernel_fused(const grid::WindState& state,
                                const advect::PwCoefficients& coefficients,
                                advect::SourceTerms& out,
                                const KernelConfig& config,
                                std::optional<XRange> xrange = std::nullopt);

}  // namespace pw::kernel
