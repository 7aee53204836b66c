#include "pw/advect/cpu_baseline.hpp"

#include "pw/advect/flops.hpp"
#include "pw/util/parallel_for.hpp"
#include "pw/util/timer.hpp"

namespace pw::advect {

CpuRunStats CpuAdvectorBaseline::run(const grid::WindState& state,
                                     const PwCoefficients& c,
                                     SourceTerms& out) const {
  // Checked once on the calling thread, so a malformed call throws here
  // rather than inside a pool worker.
  check_shapes(state, c, out);
  util::WallTimer timer;
  util::parallel_for(*pool_, 0, state.u.nx(), [&](std::size_t lo,
                                                  std::size_t hi) {
    advect_reference_x_range(state, c, out, lo, hi);
  });
  CpuRunStats stats;
  stats.seconds = timer.seconds();
  stats.threads = pool_->size();
  stats.gflops =
      static_cast<double>(total_flops(state.u.dims())) / stats.seconds / 1e9;
  return stats;
}

}  // namespace pw::advect
