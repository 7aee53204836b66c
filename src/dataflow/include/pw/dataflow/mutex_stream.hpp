#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "pw/dataflow/stream_options.hpp"
#include "pw/fault/injector.hpp"

namespace pw::dataflow {

/// The pre-PR-6 mutex+condvar stream, kept verbatim as the reference
/// implementation the lock-free fabric is differential-tested and benched
/// against (bench/micro_streams gates the SPSC ring at >= 5x lower
/// per-element handoff than this). Same contract as Stream: blocking
/// bounded FIFO, close-while-blocked wakes producers with `false` and lets
/// consumers drain, fault sites dataflow.stream.push/pop.
///
/// Not deprecated — it is the referee — but nothing on a hot path should
/// construct one; use Stream (pw/dataflow/stream.hpp).
template <typename T>
class MutexStream {
 public:
  MutexStream() : MutexStream(StreamOptions{}) {}

  explicit MutexStream(StreamOptions options)
      : options_(std::move(options)) {
    options_.validate();
  }

  [[nodiscard]] bool push(T value) {
    if (auto fault = fault::check("dataflow.stream.push", options_.name)) {
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
        return false;
      }
      fault::apply_latency(*fault);
    }
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] {
      return queue_.size() < options_.capacity || closed_;
    });
    if (closed_) {
      return false;
    }
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  bool try_push(T value) {
    std::lock_guard lock(mutex_);
    if (closed_ || queue_.size() >= options_.capacity) {
      return false;
    }
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  std::optional<T> pop() {
    if (auto fault = fault::check("dataflow.stream.pop", options_.name)) {
      if (fault->kind == fault::FaultKind::kStreamClose) {
        close();
      } else {
        fault::apply_latency(*fault);
      }
    }
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) {
      return std::nullopt;
    }
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) {
      return std::nullopt;
    }
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  std::size_t capacity() const noexcept { return options_.capacity; }

 private:
  StreamOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace pw::dataflow
