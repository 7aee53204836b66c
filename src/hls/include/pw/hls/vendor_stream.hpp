#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "pw/dataflow/streams.hpp"

namespace pw::hls {

/// Xilinx-HLS-flavoured stream facade: the `hls::stream<T>` API surface
/// (read/write/empty) over the library's lock-free Stream. Used by the
/// Xilinx-style kernel frontend so that frontend reads like Vitis HLS
/// code. HLS streams are strictly point-to-point, like the SPSC ring
/// underneath: one writing stage, one reading stage. Name your streams —
/// `XilinxStream<T> raster({.capacity = depth, .name = "xilinx.raster"})`
/// — so lint, obs and fault attribution can see them.
template <typename T>
class XilinxStream {
public:
  XilinxStream() : XilinxStream(dataflow::StreamOptions{}) {}

  explicit XilinxStream(dataflow::StreamOptions options)
      : stream_(std::move(options)) {}

  /// Blocking write; a value arriving after close() is dropped (the
  /// Stream close-while-blocked contract — real HLS streams cannot be
  /// closed, so a correct design never hits this).
  void write(T value) {
    if (!stream_.push(std::move(value))) {
      // Closed early: the consumer has gone away; nothing to do.
    }
  }

  /// Blocking burst write of `values[0, count)` — the software analogue
  /// of an AXI burst; one fault consultation and far fewer cursor
  /// publishes than `count` scalar writes.
  void write_n(T* values, std::size_t count) {
    stream_.push_n(values, count);
  }

  /// Blocking read; throws once end-of-stream is reached (HLS streams have
  /// no EOS — our frontends send exact element counts so this never fires
  /// in a correct design).
  T read() {
    auto value = stream_.pop();
    if (!value) {
      throw std::logic_error("XilinxStream::read past end of stream");
    }
    return std::move(*value);
  }

  bool read_nb(T& out) {
    return stream_.try_pop(out) == dataflow::TryPop::kValue;
  }

  bool empty() const { return stream_.size() == 0; }
  std::size_t size() const { return stream_.size(); }
  std::size_t capacity() const { return stream_.capacity(); }
  bool closed() const { return stream_.closed(); }
  const std::string& name() const { return stream_.name(); }

  void close() { stream_.close(); }

  dataflow::Stream<T>& raw() { return stream_; }
  const dataflow::Stream<T>& raw() const { return stream_; }

private:
  dataflow::Stream<T> stream_;
};

/// Intel-OpenCL-flavoured channel facade: `read_channel_intel` /
/// `write_channel_intel` free functions over a channel object. Used by the
/// Intel-style kernel frontend so that frontend reads like Quartus OpenCL.
template <typename T>
class IntelChannel {
public:
  IntelChannel() : IntelChannel(dataflow::StreamOptions{}) {}

  explicit IntelChannel(dataflow::StreamOptions options)
      : stream_(std::move(options)) {}

  dataflow::Stream<T>& raw() { return stream_; }
  const dataflow::Stream<T>& raw() const { return stream_; }

  std::size_t size() const { return stream_.size(); }
  std::size_t capacity() const { return stream_.capacity(); }
  bool closed() const { return stream_.closed(); }
  const std::string& name() const { return stream_.name(); }

private:
  dataflow::Stream<T> stream_;
};

template <typename T>
void write_channel_intel(IntelChannel<T>& channel, T value) {
  if (!channel.raw().push(std::move(value))) {
    // Channel closed early: the value is dropped (see Stream contract).
  }
}

template <typename T>
T read_channel_intel(IntelChannel<T>& channel) {
  auto value = channel.raw().pop();
  if (!value) {
    throw std::logic_error("read_channel_intel past end of channel");
  }
  return std::move(*value);
}

template <typename T>
bool read_channel_nb_intel(IntelChannel<T>& channel, T& out) {
  return channel.raw().try_pop(out) == dataflow::TryPop::kValue;
}

}  // namespace pw::hls
