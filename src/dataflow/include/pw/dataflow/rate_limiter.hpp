#pragma once

#include <cstddef>
#include <cstdint>

namespace pw::dataflow {

/// Gate through which cycle-level stages route their external-memory
/// traffic. The FPGA memory-system model implements this to convert a
/// port's byte demand into back-pressure (stalls) when the banks it maps to
/// cannot sustain the request rate. Ideal memory needs no limiter: a
/// stage given none (kernel::CycleSimConfig::memory = nullptr) never
/// stalls on memory.
class IRateLimiter {
public:
  virtual ~IRateLimiter() = default;

  /// Asks to move `bytes` this cycle on the named port; false = stall.
  virtual bool request(std::size_t port, std::size_t bytes) = 0;

  /// Advances the limiter's cycle (token refill). The engine's owner calls
  /// this once per simulated cycle, before stage ticks.
  virtual void advance_cycle() = 0;
};

}  // namespace pw::dataflow
