#pragma once

/// The one dataflow-transport header (PR 6). Before it, threaded code
/// included stream.hpp and cycle-accurate code included sim_stream.hpp,
/// and the two FIFO families drifted apart (different ctor shapes, no
/// shared options type). Everything now lives behind this header and
/// speaks StreamOptions:
///
///   Stream<T>      lock-free threaded FIFO (SPSC ring by default, MPMC
///                  on request) — the hot transport.
///   MutexStream<T> the pre-PR-6 mutex implementation, kept as referee
///                  for differential tests and the handoff bench gate.
///   SimStream<T>   single-threaded one-beat-per-cycle FIFO for the
///                  CycleEngine's II model.
///   DataPack<T,W>  wide word for batched push_n/pop_n traffic.

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "pw/dataflow/data_pack.hpp"
#include "pw/dataflow/mutex_stream.hpp"
#include "pw/dataflow/placement.hpp"
#include "pw/dataflow/stream.hpp"
#include "pw/dataflow/stream_options.hpp"

namespace pw::dataflow {

/// Single-threaded bounded FIFO used by the cycle engine. A stage tick may
/// move at most one element per port per cycle, which models the one-beat-
/// per-cycle FIFOs HLS tools synthesise. Takes the same StreamOptions as
/// Stream (policy is ignored — there is no concurrency to pick a ring
/// for); the name feeds lint diagnostics and deadlock blame.
template <typename T>
class SimStream {
public:
  SimStream() : SimStream(StreamOptions{.capacity = 2}) {}

  explicit SimStream(StreamOptions options) : options_(std::move(options)) {
    options_.validate();
  }

  bool full() const noexcept { return queue_.size() >= options_.capacity; }
  bool empty() const noexcept { return queue_.empty(); }
  std::size_t size() const noexcept { return queue_.size(); }
  std::size_t capacity() const noexcept { return options_.capacity; }
  const std::string& name() const noexcept { return options_.name; }
  const StreamOptions& options() const noexcept { return options_; }

  bool push(T value) {
    if (full()) {
      return false;
    }
    queue_.push_back(std::move(value));
    return true;
  }

  std::optional<T> pop() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  const T* peek() const { return queue_.empty() ? nullptr : &queue_.front(); }

  void set_eos() noexcept { eos_ = true; }
  /// True when the producer has finished and the FIFO is drained.
  bool finished() const noexcept { return eos_ && queue_.empty(); }
  bool eos() const noexcept { return eos_; }

private:
  StreamOptions options_;
  std::deque<T> queue_;
  bool eos_ = false;
};

}  // namespace pw::dataflow
