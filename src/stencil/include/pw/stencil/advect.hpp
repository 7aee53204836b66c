#pragma once

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/stencil/machine.hpp"

namespace pw::stencil {

/// The declared spec of the paper's PW advection kernel (also reachable via
/// find_stencil("advect_pw")). api::Solver's fused, multi_kernel and
/// host_overlap advection backends run on this machine, and advection's
/// lint graph, fault site and perf entry flow from the same registry.
const StencilSpec& advect_spec();

/// The advection per-cell op, defined beside the passes in pw::kernel so
/// kernel::run_kernel_fused can forward to the same streaming pass.
using kernel::AdvectOp;

/// One advection solve on the stencil machine. Bit-identical to
/// advect_reference on every engine.
PassStats run_advect(const grid::WindState& state,
                     const advect::PwCoefficients& coefficients,
                     advect::SourceTerms& out, const EngineConfig& config);

}  // namespace pw::stencil
