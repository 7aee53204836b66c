#pragma once

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::advect {

/// Timing breakdown of a baseline run.
struct CpuRunStats {
  double seconds = 0.0;
  double gflops = 0.0;
  std::size_t threads = 1;  ///< X-ranges requested of the pool
};

/// Threaded CPU baseline: the paper's "24 core Xeon" comparator. Work is
/// decomposed over the slowest (x) dimension into `ranges` contiguous
/// slices (0: one per pool worker) run on a thread pool, and each slice
/// runs advect_reference's own loop (advect_reference_x_range), so the
/// results are bit-identical to advect_reference. api::Solver runs it on
/// util::ThreadPool::shared(). Throws std::invalid_argument on the shapes
/// advect_reference rejects.
class CpuAdvectorBaseline {
public:
  explicit CpuAdvectorBaseline(util::ThreadPool& pool, std::size_t ranges = 0)
      : pool_(&pool), ranges_(ranges) {}

  CpuRunStats run(const grid::WindState& state, const PwCoefficients& c,
                  SourceTerms& out) const;

private:
  util::ThreadPool* pool_;
  std::size_t ranges_;
};

}  // namespace pw::advect
