#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "pw/check/shim.hpp"
#include "pw/dataflow/ring.hpp"
#include "pw/dataflow/stream_options.hpp"
#include "pw/fault/injector.hpp"
#include "pw/obs/metrics.hpp"

namespace pw::dataflow {

/// Non-blocking pop verdict — the PR 6 fix for the old try_pop() ambiguity
/// where closed-and-drained and merely-empty were both nullopt (a poller
/// could spin forever on a dead stream).
enum class TryPop {
  kValue,   ///< an element was delivered
  kEmpty,   ///< nothing available right now; more may arrive
  kClosed,  ///< end-of-stream: closed and fully drained, stop polling
};

/// Point-in-time traffic counters of one stream (see Stream::stats /
/// Stream::publish). Counts are exact per side: `pushed` is written only
/// by the producer, `popped` only by the consumer.
struct StreamStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t push_blocked = 0;  ///< blocking-push slow-path entries
  std::uint64_t pop_blocked = 0;   ///< blocking-pop slow-path entries
  std::uint64_t faults = 0;        ///< injected faults attributed here
};

/// Bounded blocking FIFO connecting concurrently running dataflow stages —
/// the software analogue of an `hls::stream` / OpenCL channel, rebuilt in
/// PR 6 as a lock-free fabric.
///
/// The one transport is a cache-line-padded single-producer/single-
/// consumer ring (detail::SpscRing): the Fig. 2 pipelines are strictly
/// point-to-point, and pw::lint rejects a declared stream with a second
/// writer or reader. Exactly one thread may push (push, try_push, push_n)
/// and exactly one may pop (pop, try_pop, pop_n); close() and the
/// observers may be called from any thread. Blocking paths
/// spin-then-yield-then-nap (detail::Backoff) instead of parking on a
/// condvar, so the steady-state hot path is a handful of plain
/// loads/stores on uncontended cache lines — bench/micro_streams gates
/// the handoff at >= 5x below the old mutex stream (kept as MutexStream,
/// the referee).
///
/// Close-while-blocked contract (unchanged from the mutex era): close()
/// may be called from any thread at any time, including while a producer
/// is blocked inside push(). A producer woken — or arriving — after
/// close() gets `false` back and its value is discarded; it must NOT
/// receive an exception, so pipeline stage threads shut down cleanly on
/// early termination. Consumers drain whatever was accepted before the
/// close, then see nullopt / TryPop::kClosed. One lock-free refinement: a
/// push that races the close itself may win the race and be accepted
/// (linearising before the close); such elements are drained by any
/// consumer that keeps consuming, and destroyed with the stream otherwise.
///
/// Fault sites "dataflow.stream.push" / "dataflow.stream.pop" (pw::fault)
/// are preserved, one consultation per call including batched calls; a
/// named stream additionally attributes every injected fault to its name
/// in FaultReport::by_stream. Disarmed cost is one atomic load.
///
/// Like the ring underneath it, Stream goes through the pw::check atomics
/// shim and lives in a PW_CHECK-versioned inline namespace: production TUs
/// get `fabric::Stream` on real std::atomics, the pw::check scenario
/// library gets `modelchecked::Stream` under the virtual scheduler — same
/// source, ODR-distinct symbols (see docs/static_analysis.md).
PW_CHECK_ABI_BEGIN
template <typename T>
class Stream {
 public:
  Stream() : Stream(StreamOptions{}) {}

  /// The only constructor — the bare-integer `Stream(capacity)` of PRs 0-5
  /// is gone; say `Stream<T>({.capacity = 8, .name = "raster"})`.
  explicit Stream(StreamOptions options)
      : options_(std::move(options)), ring_(validated_capacity(options_)) {}

  /// Blocking push. True when the value was enqueued; false when the
  /// stream is (or becomes, while blocked) closed — the value is then
  /// discarded and the producer should wind down.
  [[nodiscard]] bool push(T value) {
    if (auto fault = fault::check("dataflow.stream.push", options_.name)) {
      count_fault();
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
        return false;
      }
      fault::apply_latency(*fault);
    }
    if (closed_.load(std::memory_order_acquire)) {
      return false;
    }
    if (ring_.try_push(value)) {
      count_push(1);
      return true;
    }
    count_blocked(push_blocked_);
    detail::Backoff backoff;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) {
        return false;
      }
      if (ring_.try_push(value)) {
        count_push(1);
        return true;
      }
      backoff.pause();
    }
  }

  /// Non-blocking push: false when full or closed (closed is additionally
  /// observable via closed()).
  bool try_push(T value) {
    if (closed_.load(std::memory_order_acquire)) {
      return false;
    }
    if (!ring_.try_push(value)) {
      return false;
    }
    count_push(1);
    return true;
  }

  /// Blocking bulk push of `values[0, count)`. Returns how many elements
  /// were accepted — `count` unless the stream closed mid-batch. The ring
  /// publishes each accepted run with a single release store, which is
  /// what amortises per-element synchronisation for wide DataPack
  /// traffic. One fault consultation per call.
  std::size_t push_n(T* values, std::size_t count) {
    if (auto fault = fault::check("dataflow.stream.push", options_.name)) {
      count_fault();
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
        return 0;
      }
      fault::apply_latency(*fault);
    }
    std::size_t done = 0;
    detail::Backoff backoff;
    bool blocked_counted = false;
    while (done < count) {
      if (closed_.load(std::memory_order_acquire)) {
        break;
      }
      const std::size_t accepted =
          ring_.try_push_n(values + done, count - done);
      if (accepted == 0) {
        if (!blocked_counted) {
          blocked_counted = true;
          count_blocked(push_blocked_);
        }
        backoff.pause();
        continue;
      }
      backoff.reset();
      done += accepted;
    }
    count_push(done);
    return done;
  }

  /// Blocking pop; nullopt means closed-and-drained.
  std::optional<T> pop() {
    if (auto fault = fault::check("dataflow.stream.pop", options_.name)) {
      count_fault();
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
      } else {
        fault::apply_latency(*fault);
      }
    }
    T value;
    if (ring_.try_pop(value)) {
      count_pop(1);
      return value;
    }
    count_blocked(pop_blocked_);
    detail::Backoff backoff;
    for (;;) {
      if (ring_.try_pop(value)) {
        count_pop(1);
        return value;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Acquiring `closed` made every pre-close push visible; one last
        // look distinguishes drained from racing-in elements.
        if (ring_.try_pop(value)) {
          count_pop(1);
          return value;
        }
        return std::nullopt;
      }
      backoff.pause();
    }
  }

  /// Non-blocking pop, status-reporting flavour: delivers an element, or
  /// says *why* it could not — kEmpty (keep polling) vs kClosed
  /// (end-of-stream, stop). This is the contract fix for pollers; the
  /// optional-returning overload below cannot tell the two apart.
  TryPop try_pop(T& out) {
    if (ring_.try_pop(out)) {
      count_pop(1);
      return TryPop::kValue;
    }
    if (closed_.load(std::memory_order_acquire)) {
      if (ring_.try_pop(out)) {
        count_pop(1);
        return TryPop::kValue;
      }
      return TryPop::kClosed;
    }
    return TryPop::kEmpty;
  }

  /// Non-blocking pop, legacy flavour: nullopt when nothing is available —
  /// which conflates "empty for now" with "closed and drained". Kept for
  /// drain loops that follow a close(); pollers must use the TryPop
  /// overload or check exhausted() to terminate.
  std::optional<T> try_pop() {
    T value;
    if (!ring_.try_pop(value)) {
      return std::nullopt;
    }
    count_pop(1);
    return value;
  }

  /// Blocking bulk pop into `out[0, count)`; returns the number delivered —
  /// `count` unless end-of-stream arrived first. Never waits for more than
  /// the next element (partial runs are delivered as they appear), so
  /// batched consumers cannot deadlock pipelines whose other streams are
  /// still scalar. One fault consultation per call.
  std::size_t pop_n(T* out, std::size_t count) {
    if (auto fault = fault::check("dataflow.stream.pop", options_.name)) {
      count_fault();
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
      } else {
        fault::apply_latency(*fault);
      }
    }
    std::size_t done = 0;
    detail::Backoff backoff;
    bool blocked_counted = false;
    while (done < count) {
      std::size_t got = ring_.try_pop_n(out + done, count - done);
      if (got > 0) {
        backoff.reset();
        done += got;
        continue;
      }
      if (closed_.load(std::memory_order_acquire)) {
        got = ring_.try_pop_n(out + done, count - done);
        done += got;
        if (got == 0) {
          break;
        }
        continue;
      }
      if (!blocked_counted) {
        blocked_counted = true;
        count_blocked(pop_blocked_);
      }
      backoff.pause();
    }
    count_pop(done);
    return done;
  }

  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// End-of-stream from the non-blocking side: closed *and* drained. The
  /// poll-loop termination test that nullopt-from-try_pop never was.
  bool exhausted() const noexcept {
    return closed() && size() == 0;
  }

  std::size_t size() const noexcept { return ring_.size(); }

  std::size_t capacity() const noexcept { return options_.capacity; }
  const std::string& name() const noexcept { return options_.name; }

  StreamStats stats() const noexcept {
    StreamStats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.push_blocked = push_blocked_.load(std::memory_order_relaxed);
    s.pop_blocked = pop_blocked_.load(std::memory_order_relaxed);
    s.faults = faults_.load(std::memory_order_relaxed);
    return s;
  }

  /// Publishes this stream's counters into `registry` under
  /// `dataflow.stream.<name>.*`. Anonymous streams have nowhere to publish
  /// to and return false — naming is what buys observability.
  bool publish(obs::MetricsRegistry& registry) const {
    if (options_.name.empty()) {
      return false;
    }
    const StreamStats s = stats();
    const std::string base = "dataflow.stream." + options_.name;
    registry.counter_add(base + ".pushed", s.pushed);
    registry.counter_add(base + ".popped", s.popped);
    registry.counter_add(base + ".push_blocked", s.push_blocked);
    registry.counter_add(base + ".pop_blocked", s.pop_blocked);
    registry.counter_add(base + ".faults", s.faults);
    return true;
  }

 private:
  static std::size_t validated_capacity(const StreamOptions& options) {
    options.validate();
    return options.capacity;
  }

  /// Each side's counter has one writer (the producer or the consumer),
  /// so a plain load+store (no locked RMW) keeps the hot path cheap.
  void count_push(std::uint64_t n) noexcept {
    if (n == 0) {
      return;
    }
    pushed_.store(pushed_.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  void count_pop(std::uint64_t n) noexcept {
    if (n == 0) {
      return;
    }
    popped_.store(popped_.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  void count_blocked(pw::check::atomic<std::uint64_t>& counter) noexcept {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  void count_fault() noexcept {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }

  StreamOptions options_;
  detail::SpscRing<T> ring_;
  alignas(detail::kCacheLine) pw::check::atomic<bool> closed_{false};
  alignas(detail::kCacheLine) pw::check::atomic<std::uint64_t> pushed_{0};
  alignas(detail::kCacheLine) pw::check::atomic<std::uint64_t> popped_{0};
  pw::check::atomic<std::uint64_t> push_blocked_{0};
  pw::check::atomic<std::uint64_t> pop_blocked_{0};
  pw::check::atomic<std::uint64_t> faults_{0};
};
PW_CHECK_ABI_END

}  // namespace pw::dataflow
