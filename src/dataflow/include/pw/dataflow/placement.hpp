#pragma once

#include <string>

namespace pw::dataflow {

/// Where a pipeline stage's thread should run — the explicit replacement
/// for the implicit "spawn a thread wherever the scheduler likes" that
/// ThreadedPipeline::add_stage used to do. A stage is either unpinned or
/// pinned to one core. Placement is best-effort and advisory: on platforms
/// without affinity syscalls apply_placement reports failure and the stage
/// runs unpinned — never an error, because correctness must not depend on
/// topology.
struct PlacementSpec {
  enum class Mode {
    kUnpinned,  ///< scheduler's choice (the old behaviour)
    kCore,      ///< pin to one logical core (index modulo available cores)
  };

  Mode mode = Mode::kUnpinned;
  int index = -1;  ///< core index; ignored for kUnpinned

  static PlacementSpec unpinned() noexcept { return {}; }
  static PlacementSpec core(int core) noexcept {
    return {Mode::kCore, core};
  }

  bool pinned() const noexcept { return mode != Mode::kUnpinned; }

  /// "unpinned", "core 3" — for placement reports and tests.
  std::string describe() const;

  bool operator==(const PlacementSpec&) const = default;
};

/// Applies `spec` to the calling thread. Returns true when the affinity
/// mask was actually changed (kUnpinned trivially succeeds without
/// touching anything). Core indices wrap modulo the online core count so
/// a pipeline tuned on a 64-core box still launches on a laptop.
bool apply_placement(const PlacementSpec& spec) noexcept;

/// Online logical cores as the placement layer sees them (>= 1).
int placement_cores() noexcept;

}  // namespace pw::dataflow
