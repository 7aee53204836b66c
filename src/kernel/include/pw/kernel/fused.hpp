#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/grid/init.hpp"
#include "pw/hls/numeric_cast.hpp"
#include "pw/kernel/config.hpp"
#include "pw/kernel/passes.hpp"

namespace pw::kernel {

/// The advection per-cell op on the stencil machine: advect_cell with the
/// per-level Z coefficients looked up from the cell's k. Every advection
/// engine runs this one op (stencil::AdvectOp names the double instance),
/// over whichever window view its pass provides. T is the arithmetic's
/// value type: the coefficients are converted to it once, at construction
/// (the f32 and fixed-point datapaths of the paper's §V), which throws
/// std::invalid_argument unless every per-level vector has `levels`
/// entries.
template <typename T>
struct BasicAdvectOp {
  static constexpr std::size_t kFieldsIn = 3;   ///< u, v, w
  static constexpr std::size_t kFieldsOut = 3;  ///< su, sv, sw

  T tcx{};
  T tcy{};
  std::vector<advect::ZCoeffsT<T>> z;  ///< one entry per level

  BasicAdvectOp(const advect::PwCoefficients& c, std::size_t levels)
      : tcx(hls::to_value<T>(c.tcx)), tcy(hls::to_value<T>(c.tcy)),
        z(levels) {
    if (c.tzc1.size() != levels || c.tzc2.size() != levels ||
        c.tzd1.size() != levels || c.tzd2.size() != levels) {
      throw std::invalid_argument("AdvectOp: coefficient levels != nz");
    }
    for (std::size_t k = 0; k < levels; ++k) {
      z[k] = {hls::to_value<T>(c.tzc1[k]), hls::to_value<T>(c.tzc2[k]),
              hls::to_value<T>(c.tzd1[k]), hls::to_value<T>(c.tzd2[k])};
    }
  }

  template <typename W>
  std::array<T, kFieldsOut> operator()(const W& s, const CellCtx& cell) const {
    const auto k = static_cast<std::size_t>(cell.k);
    const advect::CellSourcesT<T> sources =
        advect::advect_cell<T>(s, tcx, tcy, z[k], k + 1 == z.size());
    return {sources.su, sources.sv, sources.sw};
  }
};

using AdvectOp = BasicAdvectOp<double>;

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
