#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pw/xfer/event_graph.hpp"

namespace pw::ocl {

/// A miniature OpenCL-flavoured host runtime over the simulation stack —
/// the programming model the paper adopts on the host for both vendors
/// (and which CUDA streams mirror on the GPU).
///
/// Semantics follow in-order OpenCL command queues with events:
///  * buffers live in simulated device memory;
///  * enqueue_write / enqueue_kernel / enqueue_read return events;
///  * commands wait for their event dependencies and for earlier commands
///    on the same engine (H2D DMA, kernel, D2H DMA);
///  * finish() executes everything functionally *and* produces the
///    modelled timeline (through xfer::EventScheduler), so host code
///    written against this API gets both results and timings.

/// Simulated device-resident buffer of doubles.
class Buffer {
public:
  explicit Buffer(std::size_t count) : storage_(count, 0.0) {}

  std::size_t count() const noexcept { return storage_.size(); }
  std::size_t bytes() const noexcept {
    return storage_.size() * sizeof(double);
  }

  std::span<double> device_view() noexcept { return storage_; }
  std::span<const double> device_view() const noexcept { return storage_; }

private:
  std::vector<double> storage_;
};

/// An OpenCL-event analogue. Copyable; all copies resolve to the modelled
/// schedule once the owning queue's finish() has run.
class Event {
public:
  Event() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  bool resolved() const noexcept { return state_ && state_->resolved; }
  /// Modelled times; only meaningful after CommandQueue::finish().
  double start_seconds() const { return state_ ? state_->start : 0.0; }
  double end_seconds() const { return state_ ? state_->end : 0.0; }

private:
  friend class CommandQueue;
  struct State {
    std::size_t index = 0;
    double start = 0.0;
    double end = 0.0;
    bool resolved = false;
  };
  std::shared_ptr<State> state_;
};

/// Timing personality of the simulated device the queue talks to.
struct DeviceTiming {
  double h2d_gbps = 8.0;
  double d2h_gbps = 8.0;
  bool full_duplex = true;
  double dma_setup_s = 2e-5;
  double kernel_dispatch_s = 5e-5;
};

/// In-order command queue with event dependencies.
class CommandQueue {
public:
  explicit CommandQueue(DeviceTiming timing) : timing_(timing) {}

  /// Host -> device copy. `host` must outlive finish().
  Event enqueue_write(Buffer& destination, std::span<const double> host,
                      const std::vector<Event>& wait_for = {});

  /// Device -> host copy. `host` must outlive finish(). The transfer moves
  /// host.size() values; the first and last `halo` of them are modelled but
  /// not copied, so a padded slab read back into its place in a field keeps
  /// the host's values around it (its neighbours' results, the halos).
  Event enqueue_read(const Buffer& source, std::span<double> host,
                     const std::vector<Event>& wait_for = {},
                     std::size_t halo = 0);

  /// Kernel launch: `body` performs the real computation against buffer
  /// device_views; `modelled_seconds` is the simulated execution time.
  Event enqueue_kernel(std::string label, std::function<void()> body,
                       double modelled_seconds,
                       const std::vector<Event>& wait_for = {});

  /// clEnqueueBarrier analogue: a zero-duration command that waits for
  /// every command enqueued so far; later commands can depend on its event
  /// to serialise against the whole queue history.
  Event enqueue_barrier();

  /// clEnqueueMarker analogue: resolves when the listed events have
  /// completed (all prior commands when the list is empty).
  Event enqueue_marker(const std::vector<Event>& wait_for = {});

  /// Executes every enqueued command in dependency order (functionally)
  /// and resolves all events against the modelled timeline. Returns the
  /// timeline; the queue is then empty and reusable.
  xfer::Timeline finish();

  std::size_t pending() const noexcept { return commands_.size(); }

private:
  Event record(xfer::Command command, std::function<void()> action);
  std::vector<std::size_t> to_indices(const std::vector<Event>& events) const;

  DeviceTiming timing_;
  std::vector<xfer::Command> commands_;
  std::vector<std::function<void()>> actions_;
  std::vector<std::shared_ptr<Event::State>> states_;
};

}  // namespace pw::ocl
