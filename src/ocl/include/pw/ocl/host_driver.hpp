#pragma once

#include <functional>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/config.hpp"
#include "pw/ocl/runtime.hpp"

namespace pw::obs {
class MetricsRegistry;
}

namespace pw::ocl {

/// Host-side driver reproducing the paper's §IV pattern with the OpenCL
/// shim: the domain is chunked in X; for every chunk the three input
/// slabs are written to device buffers, the kernel is launched with an
/// event dependency on those writes (and on the previous chunk's kernel —
/// the device runs one chunk at a time), and the three result slabs are
/// read back dependent on the kernel. All commands are bulk-registered up
/// front; finish() then realises both the computation and the modelled
/// timeline, overlapping transfers with compute exactly as OpenCL events
/// on in-order queues do.
struct HostDriverConfig {
  std::size_t x_chunks = 8;
  bool overlapped = true;  ///< false: one write / one kernel / one read
  DeviceTiming timing;
  kernel::KernelConfig kernel;
  /// Simulated kernel duration for a slab of the given dims (e.g. from
  /// fpga::model_kernel_only). Defaults to zero-time kernels.
  std::function<double(const grid::GridDims&)> kernel_time_model;

  /// Optional metrics sink. A run publishes:
  ///  * wall-clock spans `host/advect` and `host/advect/{enqueue,finish,
  ///    scatter}` (gather is part of the enqueue phase, as in the paper's
  ///    host code);
  ///  * modelled spans `host/chunk/write`, `host/chunk/kernel`,
  ///    `host/chunk/read` (one per X-chunk, timed on the simulated
  ///    device timeline, flagged `modelled`);
  ///  * counters `host.bytes_written`, `host.bytes_read`, `host.chunks`;
  ///  * gauge `host.makespan_s` (modelled end-to-end seconds);
  ///  * the `stencil.advect_pw.*` counters and pass span of the kernel
  ///    body, one stencil-machine fused pass per X-chunk.
  /// Not owned; must outlive the call.
  obs::MetricsRegistry* metrics = nullptr;
};

struct HostDriverResult {
  xfer::Timeline timeline;
  double seconds = 0.0;
  std::size_t chunks = 0;
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
};

/// Runs a full advection pass through simulated device buffers. The
/// results land in `out` and are bit-identical to the direct kernel run
/// (tested); the returned timeline carries the modelled schedule.
HostDriverResult advect_via_host(const grid::WindState& state,
                                 const advect::PwCoefficients& coefficients,
                                 advect::SourceTerms& out,
                                 const HostDriverConfig& config);

}  // namespace pw::ocl
