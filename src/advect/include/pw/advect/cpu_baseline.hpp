#pragma once

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::advect {

/// Timing breakdown of a baseline run.
struct CpuRunStats {
  double seconds = 0.0;
  double gflops = 0.0;
  std::size_t threads = 1;
};

/// Threaded CPU baseline: the paper's "24 core Xeon" comparator. Work is
/// decomposed over the slowest (x) dimension across a thread pool, and each
/// slice runs advect_reference's own loop (advect_reference_x_range), so the
/// results are bit-identical to advect_reference. Throws
/// std::invalid_argument on the shapes advect_reference rejects.
class CpuAdvectorBaseline {
public:
  explicit CpuAdvectorBaseline(util::ThreadPool& pool) : pool_(&pool) {}

  CpuRunStats run(const grid::WindState& state, const PwCoefficients& c,
                  SourceTerms& out) const;

private:
  util::ThreadPool* pool_;
};

}  // namespace pw::advect
