#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <utility>

#include "pw/check/shim.hpp"

// Everything below is threaded through the pw::check atomics shim
// (pw/check/shim.hpp): `pw::check::atomic` IS `std::atomic` in production
// builds and a checker-intercepted value under PW_CHECK=1, so the shipped
// ring and the model-checked ring are the same source. The
// PW_CHECK_ABI_BEGIN namespace versioning keeps the two instantiation
// worlds ODR-separate when both are linked into one binary (the pwcheck
// battery links the production fabric *and* the instrumented one).

namespace pw::dataflow {
PW_CHECK_ABI_BEGIN
namespace detail {

inline constexpr std::size_t kCacheLine = 64;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Progressive wait for the blocking stream paths: spin (pause) while the
/// peer is plausibly mid-operation on another core, then yield the
/// timeslice, then nap in short sleeps so a long stall (a deliberately
/// wedged test stream, a slow producer) does not burn a core. On a
/// single-core host spinning can never help — the peer cannot run until we
/// leave the CPU — so the spin phase is skipped entirely there.
///
/// Under a pw::check exploration the whole ladder collapses into one
/// virtual-scheduler yield: the checker parks the thread until a peer
/// commits a store, which both removes the unbounded spin from the
/// explored state space and turns "everyone is parked here" into a sound
/// deadlock verdict.
class Backoff {
 public:
  void pause() {
    if (pw::check::under_checker()) {
      pw::check::spin_yield();
      return;
    }
    if (step_ < kSpins && !single_core()) {
      ++step_;
      cpu_relax();
      return;
    }
    if (step_ < kSpins + kYields) {
      ++step_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(nap_us_));
    if (nap_us_ < kMaxNapUs) {
      nap_us_ *= 2;
    }
  }

  void reset() noexcept {
    step_ = 0;
    nap_us_ = kFirstNapUs;
  }

 private:
  static bool single_core() noexcept {
    static const bool value = std::thread::hardware_concurrency() <= 1;
    return value;
  }

  static constexpr unsigned kSpins = 128;
  static constexpr unsigned kYields = 64;
  static constexpr unsigned kFirstNapUs = 50;
  static constexpr unsigned kMaxNapUs = 1000;
  unsigned step_ = 0;
  unsigned nap_us_ = kFirstNapUs;
};

inline std::size_t round_up_pow2(std::size_t value) noexcept {
  std::size_t pow2 = 1;
  while (pow2 < value) {
    pow2 <<= 1;
  }
  return pow2;
}

/// Lock-free single-producer/single-consumer ring buffer.
///
/// Layout is the classic two-cursor design: the producer owns `tail`, the
/// consumer owns `head`, both monotonically increasing 64-bit counters
/// (slot = counter & mask). Each side keeps a *cached* copy of the peer's
/// cursor on its own cache line and only re-reads the shared cursor when
/// the cache says full/empty — steady-state push/pop therefore touches one
/// exclusive cache line each and the two sides never contend.
///
/// Memory-ordering argument (docs/dataflow.md walks through it):
///   - producer: construct the element *then* tail.store(release); the
///     consumer's matching tail.load(acquire) makes the element visible
///     before it is read (release/acquire pair on `tail`).
///   - consumer: read + destroy the element *then* head.store(release);
///     the producer's head.load(acquire) guarantees the slot is dead
///     before it is re-constructed (release/acquire pair on `head`).
///   - close: closed.store(release) after any final pushes; a consumer
///     that acquires `closed == true` therefore also sees every element
///     pushed before the close, which is what makes drain-then-nullopt
///     work without a lock.
///
/// The tail publish goes through `pw::check::publish_order()` — constexpr
/// release in production; under PW_CHECK it is the knob the seeded-bug
/// scenario flips to relaxed to prove the checker catches the resulting
/// unpublished-element race. The `data_read`/`data_write` annotations mark
/// the plain cell accesses for the checker's happens-before race detector
/// and are no-ops in production.
///
/// Capacity is exact (size never exceeds the requested capacity) even
/// though slot storage is rounded up to a power of two for mask indexing.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity),
        mask_(round_up_pow2(capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {}

  ~SpscRing() {
    const std::uint64_t tail = prod_.cursor.load(std::memory_order_relaxed);
    for (std::uint64_t i = cons_.cursor.load(std::memory_order_relaxed);
         i != tail; ++i) {
      slot(i)->~T();
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. False when full (never blocks, never fails on close —
  /// the Stream wrapper owns the close protocol).
  bool try_push(T& value) {
    const std::uint64_t tail = prod_.cursor.load(std::memory_order_relaxed);
    if (tail - prod_.peer_cache == capacity_) {
      prod_.peer_cache = cons_.cursor.load(std::memory_order_acquire);
      if (tail - prod_.peer_cache == capacity_) {
        return false;
      }
    }
    pw::check::data_write(slot_address(tail));
    ::new (static_cast<void*>(slot(tail))) T(std::move(value));
    prod_.cursor.store(tail + 1, pw::check::publish_order());
    return true;
  }

  /// Bulk producer: moves up to `count` elements from `values`, returns
  /// how many were accepted (bounded by free space). One release store
  /// publishes the whole run — the amortisation push_n/pop_n buy.
  std::size_t try_push_n(T* values, std::size_t count) {
    const std::uint64_t tail = prod_.cursor.load(std::memory_order_relaxed);
    std::size_t free = capacity_ - static_cast<std::size_t>(tail - prod_.peer_cache);
    if (free < count) {
      prod_.peer_cache = cons_.cursor.load(std::memory_order_acquire);
      free = capacity_ - static_cast<std::size_t>(tail - prod_.peer_cache);
    }
    const std::size_t n = count < free ? count : free;
    for (std::size_t i = 0; i < n; ++i) {
      pw::check::data_write(slot_address(tail + i));
      ::new (static_cast<void*>(slot(tail + i))) T(std::move(values[i]));
    }
    if (n > 0) {
      prod_.cursor.store(tail + n, pw::check::publish_order());
    }
    return n;
  }

  /// Consumer side. False when empty.
  bool try_pop(T& out) {
    const std::uint64_t head = cons_.cursor.load(std::memory_order_relaxed);
    if (head == cons_.peer_cache) {
      cons_.peer_cache = prod_.cursor.load(std::memory_order_acquire);
      if (head == cons_.peer_cache) {
        return false;
      }
    }
    pw::check::data_write(slot_address(head));
    T* cell = slot(head);
    out = std::move(*cell);
    cell->~T();
    cons_.cursor.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Bulk consumer: pops up to `count` elements into `out`, one release
  /// store retiring the whole run.
  std::size_t try_pop_n(T* out, std::size_t count) {
    const std::uint64_t head = cons_.cursor.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cons_.peer_cache - head);
    if (avail < count) {
      cons_.peer_cache = prod_.cursor.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cons_.peer_cache - head);
    }
    const std::size_t n = count < avail ? count : avail;
    for (std::size_t i = 0; i < n; ++i) {
      pw::check::data_write(slot_address(head + i));
      T* cell = slot(head + i);
      out[i] = std::move(*cell);
      cell->~T();
    }
    if (n > 0) {
      cons_.cursor.store(head + n, std::memory_order_release);
    }
    return n;
  }

  std::size_t size() const noexcept {
    const std::uint64_t tail = prod_.cursor.load(std::memory_order_acquire);
    const std::uint64_t head = cons_.cursor.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Cell {
    alignas(T) unsigned char storage[sizeof(T)];
  };

  T* slot(std::uint64_t index) noexcept {
    return std::launder(
        reinterpret_cast<T*>(cells_[index & mask_].storage));
  }

  const void* slot_address(std::uint64_t index) const noexcept {
    return cells_[index & mask_].storage;
  }

  /// One side's state: its own cursor plus its cached view of the peer's,
  /// padded so the producer and consumer lines never false-share.
  struct alignas(kCacheLine) Side {
    pw::check::atomic<std::uint64_t> cursor{0};
    std::uint64_t peer_cache = 0;
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  Side prod_;  ///< cursor = tail, peer_cache = last-seen head
  Side cons_;  ///< cursor = head, peer_cache = last-seen tail
};

}  // namespace detail
PW_CHECK_ABI_END
}  // namespace pw::dataflow
