#pragma once

#include <cstddef>
#include <future>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pw/advect/reference.hpp"
#include "pw/fault/injector.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/passes.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/obs/span.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::stencil {

/// Which execution strategy runs a declared kernel. api::engine_config maps
/// every api::Backend onto one of these (the f64 `vectorized` backend runs
/// kReference; `host_overlap` runs kFused as the kernel of each X-chunk the
/// ocl::HostDriver moves) — every engine computes the same cells with the
/// same per-cell op, so all double-precision engines are bit-identical by
/// construction (the property the differential tests assert per kernel).
enum class Engine {
  kReference,      ///< serial direct pass (the readable oracle path)
  kThreaded,       ///< X-partitioned direct pass on the shared ThreadPool
  kFused,          ///< Fig. 2/3 shift-buffer streaming machine, one instance
  kMultiInstance,  ///< N concurrent shift-buffer instances over X slabs
};

/// How run_pass schedules a sweep. kThreaded and kMultiInstance split X
/// into `threads` or `instances` ranges (0: one per hardware thread) and
/// run them on util::ThreadPool::shared(), whose hardware_concurrency()
/// workers are started once per process and inherit the CPU affinity of
/// the thread that first uses the pool; the calling thread waits. The
/// range count, not the worker count, fixes the partition and PassStats.
struct EngineConfig {
  Engine engine = Engine::kReference;
  std::size_t chunk_y = 64;   ///< Y-chunking of the shift-buffer engines
  std::size_t threads = 0;    ///< kThreaded X-ranges (0 = hardware)
  std::size_t instances = 4;  ///< kMultiInstance kernel instances
  obs::MetricsRegistry* metrics = nullptr;
};

// The two passes, the window views an op reads and the per-pass accounting
// live beside the shift buffer in pw::kernel (kernel/passes.hpp), so the
// kernel layer's own entry points run the same loops; this layer adds the
// engines that schedule them.
using kernel::CellCtx;
using kernel::PassStats;

// ---------------------------------------------------------------------------
// The engine dispatcher: one sweep of `op` over the grid under `config`,
// reading the op's input views and writing the interiors of its output
// views, with the spec-derived fault site and obs instrumentation every
// declared kernel inherits. Throws fault::FaultError when the kernel's site
// is armed with a hard fault (the api layer converts that to
// SolveError::kBackendFault so the serve retry/failover ladder applies to
// stencil kernels unchanged). The op's declared arity must be the spec's, so
// the lint graph, perf entry and halo exchange derived from the spec
// describe what the engines stream; a mismatch throws std::invalid_argument.

template <typename Op>
PassStats run_pass(const StencilSpec& spec,
                   const kernel::InViews<Op::kFieldsIn>& in,
                   const kernel::OutViews<Op::kFieldsOut>& out, const Op& op,
                   const EngineConfig& config) {
  if (Op::kFieldsIn != spec.fields_in || Op::kFieldsOut != spec.fields_out) {
    throw std::invalid_argument("run_pass: op field arity differs from spec " +
                                spec.name);
  }
  fault::throw_if(fault_site(spec));

  const grid::GridDims dims = in[0].dims;
  const kernel::XRange full{0, dims.nx};
  PassStats stats;

  std::optional<obs::Span> span;
  if (config.metrics != nullptr) {
    span.emplace(*config.metrics, obs_prefix(spec) + ".pass");
  }

  switch (config.engine) {
    case Engine::kReference:
      kernel::pass_direct(in, out, op, full, &stats);
      break;
    case Engine::kThreaded:
    case Engine::kMultiInstance: {
      const bool streaming = config.engine == Engine::kMultiInstance;
      util::ThreadPool& pool = util::ThreadPool::shared();
      const std::size_t parts = streaming ? config.instances : config.threads;
      const auto ranges =
          kernel::partition_x(dims.nx, parts != 0 ? parts : pool.size());
      std::vector<PassStats> partial(ranges.size());
      std::vector<std::future<void>> done;
      done.reserve(ranges.size());
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        done.push_back(pool.submit([&, r] {
          if (streaming) {
            kernel::pass_streaming(in, out, op, config.chunk_y, ranges[r],
                                   &partial[r]);
          } else {
            kernel::pass_direct(in, out, op, ranges[r], &partial[r]);
          }
        }));
      }
      util::wait_all(done);
      for (const PassStats& p : partial) {
        stats += p;
      }
      break;
    }
    case Engine::kFused:
      kernel::pass_streaming(in, out, op, config.chunk_y, full, &stats);
      break;
  }

  if (config.metrics != nullptr) {
    const std::string prefix = obs_prefix(spec);
    config.metrics->counter_add(prefix + ".passes");
    config.metrics->counter_add(prefix + ".cells", stats.cells);
    if (stats.values_streamed != 0) {
      config.metrics->counter_add(prefix + ".values_streamed",
                                  stats.values_streamed);
    }
    if (stats.stencils_emitted != 0) {
      config.metrics->counter_add(prefix + ".stencils_emitted",
                                  stats.stencils_emitted);
    }
  }
  return stats;
}

/// The same sweep over whole fields: the op reads the first kFieldsIn of
/// (u, v, w) and writes the first kFieldsOut of (su, sv, sw).
template <typename Op>
PassStats run_pass(const StencilSpec& spec, const grid::WindState& in,
                   advect::SourceTerms& out, const Op& op,
                   const EngineConfig& config) {
  return run_pass(spec, kernel::inputs<Op::kFieldsIn>(in),
                  kernel::outputs<Op::kFieldsOut>(out), op, config);
}

}  // namespace pw::stencil
