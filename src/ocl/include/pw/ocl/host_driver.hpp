#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pw/kernel/passes.hpp"
#include "pw/ocl/runtime.hpp"
#include "pw/stencil/machine.hpp"

namespace pw::ocl {

/// The host driver's knobs (api::HostOptions, the `host_overlap` backend's
/// options). The kernel each chunk runs is configured apart from these.
struct HostOptions {
  std::size_t x_chunks = 8;
  bool overlapped = true;  ///< false: one write / one kernel / one read
  DeviceTiming timing;
  /// Simulated kernel duration for a slab of the given dims (e.g. from
  /// fpga::model_kernel_only). Defaults to zero-time kernels.
  std::function<double(const grid::GridDims&)> kernel_time_model;
};

/// One host round: the modelled schedule and what it moved.
struct HostDriverResult {
  xfer::Timeline timeline;
  double seconds = 0.0;  ///< modelled makespan
  std::size_t chunks = 0;
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
  kernel::PassStats stats;  ///< the chunk kernels' passes, summed
};

/// The paper's §IV host pattern (Fig. 6) for any declared stencil kernel,
/// on the OpenCL-style shim. A round chunks the domain in X and registers,
/// per chunk, writes of the op's input slabs, a kernel dependent on them
/// and on the previous chunk's kernel (the device runs one chunk at a
/// time), and reads of the result slabs dependent on the kernel; finish()
/// then realises both the computation and the modelled, overlapped
/// timeline. Nothing is staged on the host: a write moves the padded slab
/// where it lies in the caller's field (one contiguous range), the kernel
/// runs `engine`'s pass in place on views of the device buffers, and a read
/// lands in the interior planes of the caller's output (their y/z halo
/// shells come back as the device's zeros). The device buffers, shaped by
/// the op's arity and sized for the widest slab, are allocated by the first
/// round and reused by later ones, so an iterative kernel runs one round
/// per sweep over them. Commands execute in enqueue order, so one buffer
/// set serves every chunk of the modelled (double-buffered) schedule.
///
/// With `engine.metrics` set, a round publishes wall-clock spans
/// `host/<kernel>` and `host/<kernel>/{enqueue,finish}`; modelled spans
/// `host/chunk/{write,kernel,read}` per X-chunk; counters `host.chunks`,
/// `host.bytes_written` and `host.bytes_read`; gauges `host.makespan_s`
/// (every round so far) and `host.overlapped`; and the kernel's
/// `stencil.<kernel>.*` pass metrics, one pass per X-chunk.
class HostDriver {
 public:
  HostDriver(HostOptions options, stencil::EngineConfig engine)
      : options_(std::move(options)), engine_(engine) {}

  /// One round of `spec`'s `op`: reads `in` (halos included) and writes the
  /// interior planes of `out`, bit-identical to stencil::run_pass over the
  /// same views. The views must be dense and share one shape.
  template <typename Op>
  HostDriverResult run(const stencil::StencilSpec& spec,
                       const kernel::InViews<Op::kFieldsIn>& in,
                       const kernel::OutViews<Op::kFieldsOut>& out,
                       const Op& op) {
    return run_round(spec.name, in, out, [&](const grid::GridDims& slab) {
      return stencil::run_pass(
          spec, device_views<Op::kFieldsIn, const double>(inputs_, slab),
          device_views<Op::kFieldsOut, double>(outputs_, slab), op, engine_);
    });
  }

 private:
  /// Runs the chunk's pass over the device-resident slab of these dims.
  using ChunkKernel = std::function<kernel::PassStats(const grid::GridDims&)>;

  HostDriverResult run_round(const std::string& name,
                             std::span<const grid::FieldView<const double>> in,
                             std::span<const grid::FieldView<double>> out,
                             const ChunkKernel& kernel);

  /// Views of a slab laid out like the round's fields, one per buffer.
  template <std::size_t N, typename T>
  std::array<grid::FieldView<T>, N> device_views(std::vector<Buffer>& buffers,
                                                 const grid::GridDims& slab) {
    std::array<grid::FieldView<T>, N> views{};
    for (std::size_t f = 0; f < N; ++f) {
      views[f] = {buffers[f].device_view().data() + origin_, slab,
                  shape_.halo, shape_.stride_i, shape_.stride_j};
    }
    return views;
  }

  HostOptions options_;
  stencil::EngineConfig engine_;
  std::vector<Buffer> inputs_;
  std::vector<Buffer> outputs_;
  grid::FieldView<const double> shape_;  ///< the current round's layout
  std::ptrdiff_t origin_ = 0;  ///< offset of cell (0, 0, 0) in a buffer
  double makespan_s_ = 0.0;
};

}  // namespace pw::ocl
