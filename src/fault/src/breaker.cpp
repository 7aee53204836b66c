#include "pw/fault/breaker.hpp"

namespace pw::fault {

const char* to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

void CircuitBreaker::open_locked() {
  state_ = State::kOpen;
  ++opens_;
  opened_at_ = std::chrono::steady_clock::now();
  failures_ = 0;
  probes_in_flight_ = 0;
}

bool CircuitBreaker::allow() {
  std::lock_guard lock(mutex_);
  if (policy_.failure_threshold == 0) {
    return true;
  }
  if (state_ == State::kClosed) {
    return true;
  }
  if (state_ == State::kOpen) {
    if (std::chrono::steady_clock::now() - opened_at_ < policy_.cooldown) {
      return false;
    }
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
  }
  // Half-open: admit up to the probe budget.
  if (probes_in_flight_ < policy_.half_open_probes) {
    ++probes_in_flight_;
    return true;
  }
  return false;
}

void CircuitBreaker::record_success() {
  std::lock_guard lock(mutex_);
  failures_ = 0;
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    probes_in_flight_ = 0;
  }
}

void CircuitBreaker::record_failure() {
  std::lock_guard lock(mutex_);
  if (policy_.failure_threshold == 0) {
    return;
  }
  switch (state_) {
    case State::kHalfOpen:
      open_locked();  // a failed probe re-opens with a fresh cooldown
      break;
    case State::kClosed:
      if (++failures_ >= policy_.failure_threshold) {
        open_locked();
      }
      break;
    case State::kOpen:
      // A failure completing while open (raced the trip): refresh the
      // cooldown so a flapping backend does not half-open early.
      opened_at_ = std::chrono::steady_clock::now();
      break;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

std::uint64_t CircuitBreaker::opens() const {
  std::lock_guard lock(mutex_);
  return opens_;
}

}  // namespace pw::fault
