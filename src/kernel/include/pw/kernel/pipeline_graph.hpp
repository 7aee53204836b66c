#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pw/grid/geometry.hpp"
#include "pw/kernel/cycle_stages.hpp"
#include "pw/lint/graph.hpp"

namespace pw::kernel {

/// Everything the static verifier needs to know about one Fig. 2 pipeline
/// instance, independent of how it will execute (cycle sim, threaded
/// region, vendor frontend).
struct PipelineGraphSpec {
  grid::GridDims dims;
  std::size_t chunk_y = 64;     ///< 0 = unchunked (whole Y face resident)
  std::size_t fifo_depth = 4;   ///< inter-stage FIFO depth
  unsigned shift_ii = 1;        ///< shift-buffer initiation interval
  std::size_t kernels = 1;      ///< pipeline instances (multi-compute-unit)
  bool with_cycle_advance = false;  ///< cycle-sim housekeeping stage
};

/// Stream handles of one described pipeline, in construction order —
/// callers that own the matching runtime FIFOs attach live probes through
/// these (PipelineGraph::set_probe) so deadlock diagnosis can name the
/// blocking stream.
struct Fig2Streams {
  int raster = -1;
  int stencils = -1;
  int rep_u = -1, rep_v = -1, rep_w = -1;
  int out_u = -1, out_v = -1, out_w = -1;
};

/// Appends one Fig. 2 pipeline — read_data -> shift_buffer -> replicate ->
/// {advect_u, advect_v, advect_w} -> write_data — to `graph`, with every
/// stage and stream name prefixed by `prefix` ("k1/" for the second
/// instance of a multi-kernel configuration, "" for a lone pipeline).
/// Stage latencies and the shift-buffer geometry derive from `spec`.
Fig2Streams add_fig2_pipeline(lint::PipelineGraph& graph,
                              const std::string& prefix,
                              const PipelineGraphSpec& spec);

/// The full declared graph of a configuration: `spec.kernels` Fig. 2
/// pipelines plus (optionally) the detached cycle_advance housekeeping
/// stage the cycle simulator registers.
lint::PipelineGraph describe_kernel_pipeline(const PipelineGraphSpec& spec);

/// Graph of the cycle-accurate simulator for `config` over `dims` with
/// `kernels` instances — exactly what run_kernel_cycle_sim /
/// run_multi_kernel_cycle_sim construct and self-verify.
lint::PipelineGraph describe_cycle_pipeline(const grid::GridDims& dims,
                                            const CycleSimConfig& config,
                                            std::size_t kernels = 1);

/// Graph of the multi-kernel *launch* (the stencil machine's multi-instance
/// engine): N fused-kernel bodies that share no streams — each is a detached, internally
/// stream-connected unit, so only stage-level checks apply.
lint::PipelineGraph describe_multi_kernel_launch(std::size_t kernels);

/// One entry of the shipped-pipeline registry: a name, what it models,
/// and a builder producing its declared graph with a representative
/// geometry. This is what `pwlint` and the CI lint stage iterate.
struct RegisteredPipeline {
  std::string name;
  std::string description;
  std::function<lint::PipelineGraph()> build;
};

/// Every pipeline configuration the repo ships (fused/threaded region,
/// Intel channel port, single- and multi-kernel cycle sims, the URAM II=2
/// ablation), plus anything higher layers append through
/// register_pipeline(). All must lint clean (the II=2 entry warns by
/// design but has no errors).
const std::vector<RegisteredPipeline>& registered_pipelines();

/// Appends an entry to registered_pipelines() — the extension hook higher
/// layers (pw::stencil's declared kernels) use to land their graphs in the
/// one registry pwlint and the CI lint stage iterate. Idempotent by name:
/// re-registering an existing name replaces that entry in place. Not
/// thread-safe against concurrent iteration; registration belongs in
/// start-up code (pw::stencil::ensure_registered), not hot paths.
void register_pipeline(RegisteredPipeline entry);

}  // namespace pw::kernel
