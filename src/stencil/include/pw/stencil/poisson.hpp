#pragma once

#include <array>
#include <cstddef>
#include <functional>

#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/stencil/machine.hpp"

namespace pw::stencil {

/// Knobs of the Jacobi/Poisson kernel (workload reference:
/// VL_uBMK/apps/poisson_solver): `iterations` damped-free Jacobi sweeps of
/// lap(u) = rhs with Dirichlet-zero boundaries on the uniform grid.
///
/// Payload convention (the kernel-generic SolveRequest carries a WindState):
/// state.u is the initial guess, state.v the right-hand side; state.w is
/// unused. The result lands in SourceTerms.su (sv/sw are zero).
struct PoissonParams {
  std::size_t iterations = 8;  ///< Jacobi sweeps per solve
  double dx = 100.0;           ///< grid spacing [m]
  double dy = 100.0;
  double dz = 50.0;
};

/// Per-cell Jacobi FLOPs per sweep: three axis sums + three coefficient
/// muls + two combining adds + rhs subtract + diagonal mul = 10.
inline constexpr double kPoissonFlopsPerCell = 10.0;

/// The declared spec (also reachable via find_stencil("poisson_jacobi")).
const StencilSpec& poisson_spec();

/// One Jacobi update, shared by the scalar reference and every engine:
/// u' = ((u[i-1]+u[i+1])*cx + (u[j-1]+u[j+1])*cy + (u[k-1]+u[k+1])*cz
///       - rhs) / (2cx + 2cy + 2cz), reading the guess from the u window
/// and the right-hand side from the v window's centre. It reads two fields
/// and writes one, so the streaming engines feed two shift buffers and
/// store only su.
struct PoissonOp {
  static constexpr std::size_t kFieldsIn = 2;   ///< guess u, right-hand side v
  static constexpr std::size_t kFieldsOut = 1;  ///< updated guess su

  double cx = 0.0;  ///< 1 / dx^2
  double cy = 0.0;
  double cz = 0.0;
  double inv_diag = 0.0;

  explicit PoissonOp(const PoissonParams& p)
      : cx(1.0 / (p.dx * p.dx)),
        cy(1.0 / (p.dy * p.dy)),
        cz(1.0 / (p.dz * p.dz)),
        inv_diag(1.0 / (2.0 * cx + 2.0 * cy + 2.0 * cz)) {}

  template <typename W>
  std::array<double, kFieldsOut> operator()(const W& s,
                                            const CellCtx&) const {
    const double sum = (s.u.at(-1, 0, 0) + s.u.at(+1, 0, 0)) * cx +
                       (s.u.at(0, -1, 0) + s.u.at(0, +1, 0)) * cy +
                       (s.u.at(0, 0, -1) + s.u.at(0, 0, +1)) * cz;
    return {(sum - s.v.centre()) * inv_diag};
  }
};

/// Scalar reference: serial Jacobi iteration with ping-pong buffers and
/// Dirichlet-zero halos — the functional oracle for every engine.
void poisson_reference(const grid::WindState& state,
                       const PoissonParams& params, advect::SourceTerms& out);

/// One Jacobi sweep: reads the guess and the right-hand side (in that
/// order) and writes the next guess's interior.
using PoissonSweep = std::function<PassStats(const kernel::InViews<2>&,
                                             const kernel::OutViews<1>&)>;

/// `iterations` Jacobi sweeps, each one call of `sweep` from one ping-pong
/// guess field into the other, the last into out.su. The guesses are
/// out.sv and out.sw, so a solve allocates no scratch. The right-hand side
/// is read in place from state.v (PoissonOp reads only its centre). This is
/// the one sweep loop: the machine engines and the host driver (one host
/// round per sweep) both run it.
///
/// Zero-halo contract: every halo cell of `out` must read 0.0 on entry —
/// the Dirichlet-zero halos the guesses need. Every SourceTerms is built
/// so, and no pass writes an output halo, so a recycled result buffer
/// keeps them; its interiors may hold anything, since the first guess is
/// copied in and each sweep rewrites its target's whole interior. sv and sw
/// are zeroed at the end.
PassStats run_poisson(const grid::WindState& state,
                      const PoissonParams& params, advect::SourceTerms& out,
                      const PoissonSweep& sweep);

/// The sweep loop with each sweep one machine pass (with its own fault-site
/// check) under `config`. All engines are bit-identical to
/// poisson_reference.
PassStats run_poisson(const grid::WindState& state,
                      const PoissonParams& params, advect::SourceTerms& out,
                      const EngineConfig& config);

/// One Jacobi sweep that ingests the guess's halos exactly as provided
/// instead of imposing the Dirichlet boundary rule, for a caller that owns
/// the halo contents (a tile cut from a larger grid: neighbour interiors at
/// internal boundaries, the boundary rule only at true domain edges).
/// pw::shard's workers run their sweeps through run_pass directly; this
/// entry's caller is perfbench's per-tile pass probe. state.u is the
/// current guess including halos, state.v the right-hand side; the updated
/// guess lands in out.su (out.sv and out.sw are not written).
/// params.iterations is ignored (the caller sequences the sweeps).
PassStats run_poisson_sweep(const grid::WindState& state,
                            const PoissonParams& params,
                            advect::SourceTerms& out,
                            const EngineConfig& config);

}  // namespace pw::stencil
