#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "pw/api/solver.hpp"

namespace pw::api {

/// Scheduling class of one request. Priorities do not preempt running
/// solves; they bias the serve tier's admission ordering (EDF breaks
/// deadline ties by priority, weighted-fair sheds kBatch traffic before
/// kInteractive when a tenant must shrink).
enum class Priority {
  kBatch,        ///< throughput traffic: first to shed, last to run
  kNormal,       ///< the default class
  kInteractive,  ///< latency-sensitive: ties resolve in its favour
};

inline const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
  }
  return "unknown";
}

/// Inverse of to_string: "interactive" -> kInteractive; nullopt otherwise.
/// Round-tripped exhaustively by tests, like parse_backend/parse_kernel.
inline std::optional<Priority> parse_priority(std::string_view name) {
  for (const Priority priority :
       {Priority::kBatch, Priority::kNormal, Priority::kInteractive}) {
    if (name == to_string(priority)) {
      return priority;
    }
  }
  return std::nullopt;
}

/// Every Priority enumerator, for exhaustive iteration in tests and CLIs.
inline constexpr std::array<Priority, 3> kAllPriorities = {
    Priority::kBatch,
    Priority::kNormal,
    Priority::kInteractive,
};

/// One solve, as a value: fields + coefficients + options. Subsumes the
/// positional solve(state, coefficients) arguments so requests can be
/// queued, batched and replayed. Payloads are shared_ptr so a request is
/// cheap to copy and identical payloads (a hot tile requested repeatedly)
/// stay identical across the serving layer's caches.
///
/// `coefficients` is required only when options.kernel_spec selects PW
/// advection; declared stencil kernels (diffusion, Poisson) leave it null
/// — their knobs travel inside the KernelSpec.
struct SolveRequest {
  std::shared_ptr<const grid::WindState> state;
  std::shared_ptr<const advect::PwCoefficients> coefficients;
  SolverOptions options;
  std::string tag;  ///< caller-chosen label, surfaced in service metrics
  /// Per-request deadline: 0 = none. The clock starts at submit(); a
  /// request whose deadline passes before a worker reaches it completes
  /// with SolveError::kDeadlineExceeded instead of running.
  std::chrono::nanoseconds timeout{0};
  /// Tenant the request bills against (empty = the "default" tenant). The
  /// serve tier keys per-tenant quotas, weighted-fair scheduling and the
  /// ServiceReport tenant rows on this.
  std::string tenant;
  /// Scheduling class within the tenant (see api::Priority).
  Priority priority = Priority::kNormal;
};

/// Convenience constructor for owned payloads.
inline SolveRequest make_request(
    std::shared_ptr<const grid::WindState> state,
    std::shared_ptr<const advect::PwCoefficients> coefficients,
    SolverOptions options = {}) {
  SolveRequest request;
  request.state = std::move(state);
  request.coefficients = std::move(coefficients);
  request.options = std::move(options);
  return request;
}

/// Coefficient-free form for stencil kernels (diffusion, Poisson): the
/// kernel identity and knobs come entirely from options.kernel_spec.
inline SolveRequest make_request(
    std::shared_ptr<const grid::WindState> state, SolverOptions options) {
  SolveRequest request;
  request.state = std::move(state);
  request.options = std::move(options);
  return request;
}

/// Borrowing constructor: wraps caller-owned state/coefficients without
/// copying (non-owning aliasing shared_ptr). The referents must outlive
/// every use of the request — the blocking solve(request) path; do not
/// queue borrowed requests into a service.
inline SolveRequest borrow_request(
    const grid::WindState& state,
    const advect::PwCoefficients& coefficients, SolverOptions options = {}) {
  SolveRequest request;
  request.state =
      std::shared_ptr<const grid::WindState>(std::shared_ptr<void>(), &state);
  request.coefficients = std::shared_ptr<const advect::PwCoefficients>(
      std::shared_ptr<void>(), &coefficients);
  request.options = std::move(options);
  return request;
}

/// The one request check, run by every solve entry point before any device
/// does work: Solver::solve (so also Solver::submit), serve::SolveService
/// admission (single-device or sharded), and shard::ShardedSolver::solve.
/// Rejects a request with no state, an advection request with no
/// coefficients or with a coefficient vector whose length is not nz,
/// options validate() refuses for the grid, and fields whose halo is not 1.
/// Returns the typed rejection, or nullopt when the request may run.
std::optional<SolveResult> check_request(const SolveRequest& request);

namespace detail {

/// Shared completion state behind a SolveFuture. Producers (the async
/// facade, pw::serve workers) call try_begin() then complete(); consumers
/// hold SolveFutures. Public so the serve layer can produce futures, but
/// not part of the stable API surface.
struct SolveState {
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool cancel_requested = false;
  bool done = false;
  SolveResult result;
  /// The executing thread for Solver::submit futures (empty for
  /// service-pool futures). Joined when the last future drops the state.
  std::thread owned_thread;

  ~SolveState() {
    if (owned_thread.joinable()) {
      owned_thread.join();
    }
  }

  /// Marks the request as running. Returns false when it was cancelled
  /// first — the producer must then complete it with kCancelled.
  bool try_begin() {
    std::lock_guard lock(mutex);
    if (cancel_requested) {
      return false;
    }
    started = true;
    return true;
  }

  /// Publishes the result and wakes every waiter. Idempotent: the first
  /// completion wins (a cancel racing a finish cannot overwrite a result).
  void complete(SolveResult value) {
    {
      std::lock_guard lock(mutex);
      if (done) {
        return;
      }
      result = std::move(value);
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

/// Handle to an in-flight solve: poll with ready(), block with wait() (or
/// wait_for), and cancel() best-effort. Copyable — every copy refers to the
/// same solve. A default-constructed future is invalid.
class SolveFuture {
 public:
  SolveFuture() = default;
  explicit SolveFuture(std::shared_ptr<detail::SolveState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }

  /// Non-blocking poll: has the solve completed (successfully or not)?
  bool ready() const {
    if (!state_) {
      return false;
    }
    std::lock_guard lock(state_->mutex);
    return state_->done;
  }

  /// Requests cancellation. Returns true when the request had not yet
  /// started — it is then guaranteed to complete with kCancelled without
  /// running. Returns false when it already started or finished (the
  /// in-flight solve is not interrupted).
  bool cancel() {
    if (!state_) {
      return false;
    }
    std::lock_guard lock(state_->mutex);
    if (state_->started || state_->done) {
      return false;
    }
    state_->cancel_requested = true;
    return true;
  }

  /// Blocks until the solve completes; returns the result (valid for the
  /// lifetime of this future and its copies).
  const SolveResult& wait() const& {
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock, [this] { return state_->done; });
    return state_->result;
  }

  /// On a temporary future the referenced state would die with the
  /// temporary at the end of the full expression, so
  /// `service.submit(r).wait()` returns the result by value instead of a
  /// dangling reference (the payload is shared_ptr-backed, so the copy is
  /// cheap).
  SolveResult wait() && { return static_cast<const SolveFuture&>(*this).wait(); }

  /// Blocks up to `timeout`; true when the result became ready in time.
  bool wait_for(std::chrono::nanoseconds timeout) const {
    if (!state_) {
      return false;
    }
    std::unique_lock lock(state_->mutex);
    return state_->cv.wait_for(lock, timeout,
                               [this] { return state_->done; });
  }

  /// The completed result. Precondition: ready() (wait() otherwise).
  const SolveResult& result() const& { return wait(); }
  SolveResult result() && { return static_cast<const SolveFuture&>(*this).wait(); }

 private:
  std::shared_ptr<detail::SolveState> state_;
};

}  // namespace pw::api
