#pragma once

#include <array>
#include <cstddef>

#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/stencil/machine.hpp"

namespace pw::stencil {

/// Knobs of the diffusion kernel (MONC-adjacent: the diffusion/viscosity
/// step is the next-largest stencil component after advection). One
/// explicit-Euler diffusion tendency per wind field: s_f = kappa * lap(f),
/// a radius-1 7-point Laplacian on the uniform grid.
struct DiffusionParams {
  double kappa = 1.0;  ///< diffusivity [m^2/s]
  double dx = 100.0;   ///< grid spacing [m]
  double dy = 100.0;
  double dz = 50.0;
};

/// Per-cell diffusion FLOPs: per field, three axes of (add + 2*centre mul +
/// subtract + coefficient mul) plus two combining adds = 14; three fields.
inline constexpr double kDiffusionFlopsPerCell = 42.0;

/// The declared spec (also reachable via find_stencil("diffusion")).
const StencilSpec& diffusion_spec();

/// The per-cell op, shared verbatim by the scalar reference and every
/// machine engine — the single definition of the diffusion arithmetic, so
/// all double-precision paths are bit-identical by construction (the same
/// contract advect_cell gives the advection backends).
struct DiffusionOp {
  static constexpr std::size_t kFieldsIn = 3;   ///< u, v, w
  static constexpr std::size_t kFieldsOut = 3;  ///< su, sv, sw

  double cx = 0.0;  ///< kappa / dx^2
  double cy = 0.0;
  double cz = 0.0;

  explicit DiffusionOp(const DiffusionParams& p)
      : cx(p.kappa / (p.dx * p.dx)),
        cy(p.kappa / (p.dy * p.dy)),
        cz(p.kappa / (p.dz * p.dz)) {}

  template <typename S>
  double lap(const S& s) const {
    const double c = s.centre();
    return cx * (s.at(-1, 0, 0) + s.at(+1, 0, 0) - 2.0 * c) +
           cy * (s.at(0, -1, 0) + s.at(0, +1, 0) - 2.0 * c) +
           cz * (s.at(0, 0, -1) + s.at(0, 0, +1) - 2.0 * c);
  }

  template <typename W>
  std::array<double, kFieldsOut> operator()(const W& s,
                                            const CellCtx&) const {
    return {lap(s.u), lap(s.v), lap(s.w)};
  }
};

/// Scalar reference: a straightforward serial loop over direct field reads,
/// the functional oracle the differential tests hold every engine to.
void diffusion_reference(const grid::WindState& state,
                         const DiffusionParams& params,
                         advect::SourceTerms& out);

/// One diffusion solve on the stencil machine under `config`. All engines
/// are bit-identical to diffusion_reference.
PassStats run_diffusion(const grid::WindState& state,
                        const DiffusionParams& params,
                        advect::SourceTerms& out, const EngineConfig& config);

}  // namespace pw::stencil
