#pragma once

#include <cstddef>
#include <optional>

#include "pw/grid/geometry.hpp"

namespace pw::obs {
class MetricsRegistry;
}

namespace pw::kernel {

/// Configuration of one advection kernel instance.
struct KernelConfig {
  /// Interior Y columns per chunk (Fig. 4); 0 = no chunking. The paper's
  /// observation: performance is insensitive to this except for very small
  /// values (<= 8), which shorten external-memory bursts.
  std::size_t chunk_y = 64;

  /// Depth of the inter-stage FIFOs (HLS stream depth).
  std::size_t stream_depth = 16;

  /// Optional metrics sink: the vendor frontends publish their streams'
  /// traffic and occupancy statistics here (thread-safe). Not owned; must
  /// outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The interior x-planes one kernel instance owns; multi-kernel runs
/// partition X across instances (each still streams its own +/-1 halo).
struct XRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive

  std::size_t width() const noexcept { return end - begin; }
};

/// Statistics of a functional kernel execution.
struct KernelRunStats {
  std::size_t values_streamed_per_field = 0;
  std::size_t stencils_emitted = 0;
  std::size_t chunks = 0;
};

}  // namespace pw::kernel
