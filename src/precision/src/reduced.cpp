#include "pw/precision/reduced.hpp"

#include <cmath>
#include <stdexcept>

#include "pw/hls/fixed_point.hpp"
#include "pw/kernel/fused.hpp"

namespace pw::precision {

namespace {

/// The fused datapath generic over the value type: the machine's streaming
/// pass in T, with casts at the read and write stages only.
template <typename T>
void run_reduced(const grid::WindState& state,
                 const advect::PwCoefficients& c,
                 const kernel::KernelConfig& config,
                 advect::SourceTerms& out) {
  const grid::GridDims dims = state.u.dims();
  kernel::pass_streaming<T>(kernel::inputs<kernel::AdvectOp::kFieldsIn>(state),
                            kernel::outputs<kernel::AdvectOp::kFieldsOut>(out),
                            kernel::BasicAdvectOp<T>(c, dims.nz),
                            config.chunk_y, kernel::XRange{0, dims.nx});
}

void accumulate(const grid::FieldD& reference, const grid::FieldD& reduced,
                ErrorStats& stats, double& sum_sq) {
  for (std::size_t i = 0; i < reference.nx(); ++i) {
    for (std::size_t j = 0; j < reference.ny(); ++j) {
      for (std::size_t k = 0; k < reference.nz(); ++k) {
        const auto ii = static_cast<std::ptrdiff_t>(i);
        const auto jj = static_cast<std::ptrdiff_t>(j);
        const auto kk = static_cast<std::ptrdiff_t>(k);
        const double ref = reference.at(ii, jj, kk);
        const double got = reduced.at(ii, jj, kk);
        const double abs_err = std::fabs(ref - got);
        stats.max_abs = std::max(stats.max_abs, abs_err);
        stats.max_rel = std::max(
            stats.max_rel, abs_err / std::max(std::fabs(ref), 1e-30));
        sum_sq += abs_err * abs_err;
        ++stats.cells;
      }
    }
  }
}

}  // namespace

std::string to_string(Representation representation) {
  switch (representation) {
    case Representation::kFloat32:
      return "float32";
    case Representation::kFixedQ43:
      return "fixed Q20.43";
    case Representation::kFixedQ32:
      return "fixed Q31.32";
  }
  return "?";
}

double storage_factor(Representation representation) {
  return representation == Representation::kFloat32 ? 0.5 : 1.0;
}

ErrorStats evaluate(Representation representation,
                    const grid::WindState& state,
                    const advect::PwCoefficients& coefficients,
                    const kernel::KernelConfig& config,
                    advect::SourceTerms* reduced_out) {
  const grid::GridDims dims = state.u.dims();

  advect::SourceTerms reference(dims);
  kernel::run_kernel_fused(state, coefficients, reference, config);

  advect::SourceTerms reduced(dims);
  switch (representation) {
    case Representation::kFloat32:
      run_reduced<float>(state, coefficients, config, reduced);
      break;
    case Representation::kFixedQ43:
      run_reduced<hls::FixedQ43>(state, coefficients, config, reduced);
      break;
    case Representation::kFixedQ32:
      run_reduced<hls::FixedQ32>(state, coefficients, config, reduced);
      break;
  }

  ErrorStats stats;
  double sum_sq = 0.0;
  accumulate(reference.su, reduced.su, stats, sum_sq);
  accumulate(reference.sv, reduced.sv, stats, sum_sq);
  accumulate(reference.sw, reduced.sw, stats, sum_sq);
  stats.rms = stats.cells == 0
                  ? 0.0
                  : std::sqrt(sum_sq / static_cast<double>(stats.cells));
  if (reduced_out != nullptr) {
    *reduced_out = std::move(reduced);
  }
  return stats;
}

ErrorStats evaluate(Representation representation,
                    const grid::WindState& state,
                    const advect::PwCoefficients& coefficients,
                    const kernel::KernelConfig& config) {
  return evaluate(representation, state, coefficients, config, nullptr);
}

}  // namespace pw::precision
