#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace pw::dataflow {

/// Construction-time description of a Stream, a SimStream or a
/// MutexStream. Designated initialisers keep call sites self-describing:
///
///   Stream<Packet> stencils({.capacity = depth,
///                            .name = "xilinx/stencils"});
///
/// There is no transport knob: the paper's Fig. 2 pipelines are chains of
/// point-to-point FIFOs (one producer stage, one consumer stage per
/// stream, which pw::lint's connectivity check enforces), so every Stream
/// is the single-producer/single-consumer ring.
///
/// `name` is what attributes the stream everywhere an anonymous FIFO used
/// to appear: lint diagnostics (declared-depth vs live-capacity check,
/// deadlock blocking-stream naming), obs counters
/// (`dataflow.stream.<name>.*` via Stream::publish), and fault-injection
/// attribution (FaultReport::by_stream). Empty = anonymous (allowed, but
/// invisible to all three).
struct StreamOptions {
  std::size_t capacity = 16;
  std::string name;

  /// Throws std::invalid_argument on a zero capacity (a depthless FIFO
  /// can never move a value).
  void validate() const {
    if (capacity == 0) {
      throw std::invalid_argument("Stream capacity must be positive");
    }
  }
};

}  // namespace pw::dataflow
