#include "pw/ocl/runtime.hpp"

#include <cstring>
#include <stdexcept>

#include "pw/fault/injector.hpp"

namespace pw::ocl {

namespace {

/// Consults the fault plan for a transfer site: hard kinds throw
/// FaultError (a failed clEnqueueWrite/ReadBuffer), kSpuriousLatency is
/// returned as extra *modelled* seconds added to the command (a slow DMA).
double transfer_fault_latency(const char* site) {
  const auto fault = fault::check(site);
  if (!fault) {
    return 0.0;
  }
  if (fault->kind == fault::FaultKind::kSpuriousLatency ||
      fault->kind == fault::FaultKind::kStreamStall) {
    return fault->latency_s;
  }
  throw fault::FaultError(fault->kind, site);
}

}  // namespace

std::vector<std::size_t> CommandQueue::to_indices(
    const std::vector<Event>& events) const {
  std::vector<std::size_t> indices;
  indices.reserve(events.size());
  for (const Event& event : events) {
    if (!event.valid()) {
      throw std::invalid_argument("CommandQueue: wait on a null event");
    }
    if (event.state_->index >= commands_.size()) {
      throw std::invalid_argument(
          "CommandQueue: wait on an event from another queue or a later "
          "command");
    }
    indices.push_back(event.state_->index);
  }
  return indices;
}

Event CommandQueue::record(xfer::Command command,
                           std::function<void()> action) {
  Event event;
  event.state_ = std::make_shared<Event::State>();
  event.state_->index = commands_.size();
  commands_.push_back(std::move(command));
  actions_.push_back(std::move(action));
  states_.push_back(event.state_);
  return event;
}

Event CommandQueue::enqueue_write(Buffer& destination,
                                  std::span<const double> host,
                                  const std::vector<Event>& wait_for) {
  if (host.size() > destination.count()) {
    throw std::invalid_argument("enqueue_write: source exceeds buffer");
  }
  xfer::Command command;
  command.label = "write";
  command.engine = xfer::Engine::kHostToDevice;
  command.duration_s = static_cast<double>(host.size() * sizeof(double)) /
                           (timing_.h2d_gbps * 1e9) +
                       timing_.dma_setup_s +
                       transfer_fault_latency("ocl.enqueue_write");
  command.depends = to_indices(wait_for);
  auto* dst = &destination;
  return record(std::move(command), [dst, host] {
    std::memcpy(dst->device_view().data(), host.data(),
                host.size() * sizeof(double));
  });
}

Event CommandQueue::enqueue_read(const Buffer& source, std::span<double> host,
                                 const std::vector<Event>& wait_for,
                                 std::size_t halo) {
  if (host.size() > source.count()) {
    throw std::invalid_argument("enqueue_read: request exceeds buffer");
  }
  if (2 * halo > host.size()) {
    throw std::invalid_argument("enqueue_read: halo exceeds request");
  }
  const xfer::Engine engine = timing_.full_duplex
                                  ? xfer::Engine::kDeviceToHost
                                  : xfer::Engine::kHostToDevice;
  xfer::Command command;
  command.label = "read";
  command.engine = engine;
  command.duration_s = static_cast<double>(host.size() * sizeof(double)) /
                           (timing_.d2h_gbps * 1e9) +
                       timing_.dma_setup_s +
                       transfer_fault_latency("ocl.enqueue_read");
  command.depends = to_indices(wait_for);
  const auto* src = &source;
  const std::span<double> copied = host.subspan(halo, host.size() - 2 * halo);
  return record(std::move(command), [src, copied, halo] {
    std::memcpy(copied.data(), src->device_view().data() + halo,
                copied.size() * sizeof(double));
  });
}

Event CommandQueue::enqueue_kernel(std::string label,
                                   std::function<void()> body,
                                   double modelled_seconds,
                                   const std::vector<Event>& wait_for) {
  if (modelled_seconds < 0.0) {
    throw std::invalid_argument("enqueue_kernel: negative duration");
  }
  xfer::Command command;
  command.label = std::move(label);
  command.engine = xfer::Engine::kKernel;
  command.duration_s = modelled_seconds + timing_.kernel_dispatch_s +
                       transfer_fault_latency("ocl.kernel.enqueue");
  command.depends = to_indices(wait_for);
  // Fault site "ocl.kernel": fires when the kernel *executes* (inside
  // finish()), modelling a hung or faulted compute unit rather than a
  // failed enqueue.
  auto wrapped = [body = std::move(body)] {
    fault::throw_if("ocl.kernel");
    if (body) {
      body();
    }
  };
  return record(std::move(command), std::move(wrapped));
}

Event CommandQueue::enqueue_barrier() {
  xfer::Command command;
  command.label = "barrier";
  command.engine = xfer::Engine::kKernel;
  command.duration_s = 0.0;
  command.depends.resize(commands_.size());
  for (std::size_t i = 0; i < command.depends.size(); ++i) {
    command.depends[i] = i;
  }
  return record(std::move(command), {});
}

Event CommandQueue::enqueue_marker(const std::vector<Event>& wait_for) {
  if (wait_for.empty()) {
    return enqueue_barrier();
  }
  xfer::Command command;
  command.label = "marker";
  command.engine = xfer::Engine::kKernel;
  command.duration_s = 0.0;
  command.depends = to_indices(wait_for);
  return record(std::move(command), {});
}

xfer::Timeline CommandQueue::finish() {
  // Functional pass: commands were enqueued in order and dependencies only
  // point backwards, so in-order execution respects the event graph.
  for (auto& action : actions_) {
    if (action) {
      action();
    }
  }

  // Timing pass.
  xfer::EventScheduler scheduler;
  for (auto& command : commands_) {
    scheduler.add(std::move(command));
  }
  const xfer::Timeline timeline = scheduler.run();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    states_[i]->start = timeline.commands[i].start_s;
    states_[i]->end = timeline.commands[i].end_s;
    states_[i]->resolved = true;
  }

  commands_.clear();
  actions_.clear();
  states_.clear();
  return timeline;
}

}  // namespace pw::ocl
