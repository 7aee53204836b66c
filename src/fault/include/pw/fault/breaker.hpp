#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace pw::fault {

/// Tuning of one CircuitBreaker.
struct BreakerPolicy {
  /// Consecutive failures that trip the breaker open. 0 disables the
  /// breaker entirely (allow() is always true).
  std::size_t failure_threshold = 5;
  /// How long an open breaker rejects before letting probes through.
  std::chrono::nanoseconds cooldown = std::chrono::milliseconds(100);
  /// Probe budget in the half-open state: this many calls are admitted;
  /// one success closes the breaker, one failure re-opens it.
  std::size_t half_open_probes = 1;
};

/// Per-backend circuit breaker: closed -> (N consecutive failures) -> open
/// -> (cooldown) -> half-open probes -> closed on success / open on
/// failure. Callers pair every allow() == true with exactly one
/// record_success() or record_failure(). Thread-safe.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerPolicy policy = {}) : policy_(policy) {}

  /// May a call proceed right now? Open breakers start admitting again
  /// (half-open, up to half_open_probes outstanding) once the cooldown has
  /// elapsed.
  bool allow();

  void record_success();
  void record_failure();

  State state() const;
  /// Times the breaker transitioned closed/half-open -> open.
  std::uint64_t opens() const;

 private:
  void open_locked();

  BreakerPolicy policy_;
  mutable std::mutex mutex_;
  State state_ = State::kClosed;
  std::size_t failures_ = 0;        ///< consecutive, while closed
  std::size_t probes_in_flight_ = 0;
  std::uint64_t opens_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

const char* to_string(CircuitBreaker::State state);

}  // namespace pw::fault
