#include "pw/kernel/cycle_stages.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "pw/advect/scheme.hpp"
#include "pw/dataflow/streams.hpp"
#include "pw/dataflow/stage.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/packets.hpp"
#include "pw/kernel/pipeline_graph.hpp"
#include "pw/kernel/shift_buffer.hpp"
#include "pw/lint/graph.hpp"

namespace pw::kernel {

namespace {

using dataflow::SimStream;
using dataflow::TickResult;

constexpr std::size_t kBytesPerBeat = 3 * sizeof(double);
constexpr std::size_t kReadPort = 0;
constexpr std::size_t kWritePort = 1;

/// Walks the padded raster of every chunk: (chunk, i, j, k) with k fastest.
class PaddedRasterCursor {
public:
  PaddedRasterCursor(const ChunkPlan& plan, XRange xr)
      : plan_(&plan), xr_(xr) {}

  bool exhausted() const noexcept {
    return chunk_ >= plan_->chunks().size();
  }
  std::size_t chunk_index() const noexcept { return chunk_; }
  bool at_chunk_start() const noexcept {
    return i_ == 0 && j_ == 0 && k_ == 0;
  }

  /// Current padded position mapped to global (possibly halo) coordinates.
  void global(std::ptrdiff_t& gi, std::ptrdiff_t& gj,
              std::ptrdiff_t& gk) const {
    const YChunk& c = plan_->chunks()[chunk_];
    gi = static_cast<std::ptrdiff_t>(xr_.begin) - 1 +
         static_cast<std::ptrdiff_t>(i_);
    gj = static_cast<std::ptrdiff_t>(c.j_begin) - 1 +
         static_cast<std::ptrdiff_t>(j_);
    gk = static_cast<std::ptrdiff_t>(k_) - 1;
  }

  void advance() {
    const YChunk& c = plan_->chunks()[chunk_];
    const std::size_t nzp = plan_->dims().nz + 2;
    const std::size_t nyp = c.padded_width();
    const std::size_t nxp = xr_.width() + 2;
    if (++k_ == nzp) {
      k_ = 0;
      if (++j_ == nyp) {
        j_ = 0;
        if (++i_ == nxp) {
          i_ = 0;
          ++chunk_;
        }
      }
    }
  }

private:
  const ChunkPlan* plan_;
  XRange xr_;
  std::size_t chunk_ = 0;
  std::size_t i_ = 0, j_ = 0, k_ = 0;
};

/// Walks the interior cells of every chunk in emission order.
class InteriorCursor {
public:
  InteriorCursor(const ChunkPlan& plan, XRange xr) : plan_(&plan), xr_(xr) {}

  bool exhausted() const noexcept {
    return chunk_ >= plan_->chunks().size();
  }

  void global(std::ptrdiff_t& gi, std::ptrdiff_t& gj,
              std::ptrdiff_t& gk) const {
    const YChunk& c = plan_->chunks()[chunk_];
    gi = static_cast<std::ptrdiff_t>(xr_.begin + i_);
    gj = static_cast<std::ptrdiff_t>(c.j_begin + j_);
    gk = static_cast<std::ptrdiff_t>(k_);
  }

  void advance() {
    const YChunk& c = plan_->chunks()[chunk_];
    if (++k_ == plan_->dims().nz) {
      k_ = 0;
      if (++j_ == c.width()) {
        j_ = 0;
        if (++i_ == xr_.width()) {
          i_ = 0;
          ++chunk_;
        }
      }
    }
  }

private:
  const ChunkPlan* plan_;
  XRange xr_;
  std::size_t chunk_ = 0;
  std::size_t i_ = 0, j_ = 0, k_ = 0;
};

struct Fifos {
  static dataflow::StreamOptions opts(std::size_t depth, const char* name) {
    return {.capacity = depth, .name = std::string("cycle.") + name};
  }

  explicit Fifos(std::size_t depth)
      : raster(opts(depth, "raster")), stencils(opts(depth, "stencils")),
        rep_u(opts(depth, "rep_u")), rep_v(opts(depth, "rep_v")),
        rep_w(opts(depth, "rep_w")), out_u(opts(depth, "out_u")),
        out_v(opts(depth, "out_v")), out_w(opts(depth, "out_w")) {}

  SimStream<CellInput> raster;
  SimStream<StencilPacket> stencils;
  SimStream<StencilPacket> rep_u, rep_v, rep_w;
  SimStream<double> out_u, out_v, out_w;
};

class ReadStage final : public dataflow::ICycleStage {
public:
  ReadStage(const grid::WindState& state, const ChunkPlan& plan, XRange xr,
            Fifos& f, dataflow::IRateLimiter* memory)
      : ICycleStage("read_data"), state_(&state), cursor_(plan, xr),
        fifos_(&f), memory_(memory) {}

protected:
  TickResult step() override {
    if (cursor_.exhausted()) {
      fifos_->raster.set_eos();
      return TickResult::kDone;
    }
    if (fifos_->raster.full()) {
      return TickResult::kStalled;
    }
    if (memory_ != nullptr && !memory_->request(kReadPort, kBytesPerBeat)) {
      return TickResult::kStalled;
    }
    std::ptrdiff_t i = 0, j = 0, k = 0;
    cursor_.global(i, j, k);
    fifos_->raster.push(CellInput{state_->u.at(i, j, k), state_->v.at(i, j, k),
                                  state_->w.at(i, j, k)});
    cursor_.advance();
    return TickResult::kFired;
  }

private:
  const grid::WindState* state_;
  PaddedRasterCursor cursor_;
  Fifos* fifos_;
  dataflow::IRateLimiter* memory_;
};

class ShiftStage final : public dataflow::ICycleStage {
public:
  ShiftStage(const ChunkPlan& plan, XRange xr, std::size_t nz, Fifos& f,
             unsigned ii)
      : ICycleStage("shift_buffer", ii), plan_(&plan), cursor_(plan, xr),
        nz_(nz), fifos_(&f) {}

protected:
  TickResult step() override {
    if (cursor_.exhausted()) {
      fifos_->stencils.set_eos();
      return TickResult::kDone;
    }
    if (cursor_.at_chunk_start()) {
      const YChunk& c = plan_->chunks()[cursor_.chunk_index()];
      buffer_ = std::make_unique<TripleShiftBuffer>(c.padded_width(), nz_ + 2);
    }
    if (fifos_->raster.empty()) {
      return TickResult::kStalled;
    }
    if (buffer_->next_would_emit() && fifos_->stencils.full()) {
      return TickResult::kStalled;
    }
    const CellInput cell = *fifos_->raster.pop();
    auto emitted = buffer_->push(cell.u, cell.v, cell.w);
    if (emitted) {
      StencilPacket packet;
      packet.stencils = emitted->stencils;
      packet.k = static_cast<std::uint32_t>(emitted->ck - 1);
      packet.top = packet.k + 1 == nz_;
      fifos_->stencils.push(packet);
    }
    cursor_.advance();
    return TickResult::kFired;
  }

private:
  const ChunkPlan* plan_;
  PaddedRasterCursor cursor_;
  std::size_t nz_;
  Fifos* fifos_;
  std::unique_ptr<TripleShiftBuffer> buffer_;
};

class ReplicateStage final : public dataflow::ICycleStage {
public:
  explicit ReplicateStage(Fifos& f) : ICycleStage("replicate"), fifos_(&f) {}

protected:
  TickResult step() override {
    if (fifos_->stencils.finished()) {
      fifos_->rep_u.set_eos();
      fifos_->rep_v.set_eos();
      fifos_->rep_w.set_eos();
      return TickResult::kDone;
    }
    if (fifos_->stencils.empty()) {
      return TickResult::kStalled;
    }
    if (fifos_->rep_u.full() || fifos_->rep_v.full() || fifos_->rep_w.full()) {
      return TickResult::kStalled;
    }
    const StencilPacket packet = *fifos_->stencils.pop();
    fifos_->rep_u.push(packet);
    fifos_->rep_v.push(packet);
    fifos_->rep_w.push(packet);
    return TickResult::kFired;
  }

private:
  Fifos* fifos_;
};

enum class Which { kU, kV, kW };

class AdvectStage final : public dataflow::ICycleStage {
public:
  AdvectStage(Which which, const advect::PwCoefficients& c, Fifos& f)
      : ICycleStage(which == Which::kU   ? "advect_u"
                    : which == Which::kV ? "advect_v"
                                         : "advect_w"),
        which_(which), c_(&c), fifos_(&f) {}

protected:
  TickResult step() override {
    SimStream<StencilPacket>& in = which_ == Which::kU   ? fifos_->rep_u
                                   : which_ == Which::kV ? fifos_->rep_v
                                                         : fifos_->rep_w;
    SimStream<double>& out = which_ == Which::kU   ? fifos_->out_u
                             : which_ == Which::kV ? fifos_->out_v
                                                   : fifos_->out_w;
    if (in.finished()) {
      out.set_eos();
      return TickResult::kDone;
    }
    if (in.empty() || out.full()) {
      return TickResult::kStalled;
    }
    const StencilPacket p = *in.pop();
    const advect::ZCoeffs z{c_->tzc1[p.k], c_->tzc2[p.k], c_->tzd1[p.k],
                            c_->tzd2[p.k]};
    double result = 0.0;
    switch (which_) {
      case Which::kU:
        result = advect::advect_u_cell(p.stencils, c_->tcx, c_->tcy, z, p.top);
        break;
      case Which::kV:
        result = advect::advect_v_cell(p.stencils, c_->tcx, c_->tcy, z, p.top);
        break;
      case Which::kW:
        result = advect::advect_w_cell(p.stencils, c_->tcx, c_->tcy, z);
        break;
    }
    out.push(result);
    return TickResult::kFired;
  }

private:
  Which which_;
  const advect::PwCoefficients* c_;
  Fifos* fifos_;
};

class WriteStage final : public dataflow::ICycleStage {
public:
  WriteStage(const ChunkPlan& plan, XRange xr, advect::SourceTerms& out,
             Fifos& f, dataflow::IRateLimiter* memory, std::size_t* retired)
      : ICycleStage("write_data"), cursor_(plan, xr), out_(&out), fifos_(&f),
        memory_(memory), retired_(retired) {}

protected:
  TickResult step() override {
    if (cursor_.exhausted()) {
      return TickResult::kDone;
    }
    if (fifos_->out_u.empty() || fifos_->out_v.empty() ||
        fifos_->out_w.empty()) {
      return TickResult::kStalled;
    }
    if (memory_ != nullptr && !memory_->request(kWritePort, kBytesPerBeat)) {
      return TickResult::kStalled;
    }
    std::ptrdiff_t i = 0, j = 0, k = 0;
    cursor_.global(i, j, k);
    out_->su.at(i, j, k) = *fifos_->out_u.pop();
    out_->sv.at(i, j, k) = *fifos_->out_v.pop();
    out_->sw.at(i, j, k) = *fifos_->out_w.pop();
    cursor_.advance();
    ++*retired_;
    return TickResult::kFired;
  }

private:
  InteriorCursor cursor_;
  advect::SourceTerms* out_;
  Fifos* fifos_;
  dataflow::IRateLimiter* memory_;
  std::size_t* retired_;
};

}  // namespace

namespace {

/// Ticks once per simulated cycle before any pipeline stage: refills the
/// shared rate limiter and finishes when every cell has been retired.
class CycleAdvance final : public dataflow::ICycleStage {
public:
  CycleAdvance(dataflow::IRateLimiter* memory, const std::size_t* retired,
               std::size_t target)
      : ICycleStage("cycle_advance"), memory_(memory), retired_(retired),
        target_(target) {}

protected:
  TickResult step() override {
    if (*retired_ >= target_) {
      return TickResult::kDone;
    }
    if (memory_ != nullptr) {
      memory_->advance_cycle();
    }
    return TickResult::kIdle;
  }

private:
  dataflow::IRateLimiter* memory_;
  const std::size_t* retired_;
  std::size_t target_;
};

/// Adds one complete pipeline (read..write) over `xr` to the engine.
void add_pipeline(dataflow::CycleEngine& engine,
                  const grid::WindState& state,
                  const advect::PwCoefficients& c, const ChunkPlan& plan,
                  XRange xr, advect::SourceTerms& out,
                  const CycleSimConfig& config, Fifos& fifos,
                  std::size_t* retired) {
  engine.add_stage(std::make_unique<ReadStage>(state, plan, xr, fifos,
                                               config.memory));
  engine.add_stage(std::make_unique<ShiftStage>(plan, xr, state.u.nz(),
                                                fifos, config.shift_ii));
  engine.add_stage(std::make_unique<ReplicateStage>(fifos));
  engine.add_stage(std::make_unique<AdvectStage>(Which::kU, c, fifos));
  engine.add_stage(std::make_unique<AdvectStage>(Which::kV, c, fifos));
  engine.add_stage(std::make_unique<AdvectStage>(Which::kW, c, fifos));
  engine.add_stage(std::make_unique<WriteStage>(plan, xr, out, fifos,
                                                config.memory, retired));
}

CycleSimResult run_pipelines(const grid::WindState& state,
                             const advect::PwCoefficients& c,
                             advect::SourceTerms& out,
                             const CycleSimConfig& config,
                             const std::vector<XRange>& ranges) {
  const grid::GridDims dims = state.u.dims();
  const ChunkPlan plan(dims, config.kernel.chunk_y);

  std::size_t target = 0;
  for (const auto& xr : ranges) {
    for (const auto& chunk : plan.chunks()) {
      target += xr.width() * chunk.width() * dims.nz;
    }
  }

  std::size_t retired = 0;
  std::vector<std::unique_ptr<Fifos>> fifos;
  fifos.reserve(ranges.size());

  dataflow::CycleEngine engine;
  if (config.trace_cycles > 0) {
    engine.enable_trace(config.trace_cycles);
  }
  engine.add_stage(std::make_unique<CycleAdvance>(config.memory, &retired,
                                                  target));
  for (const XRange& xr : ranges) {
    fifos.push_back(std::make_unique<Fifos>(config.fifo_depth));
    add_pipeline(engine, state, c, plan, xr, out, config, *fifos.back(),
                 &retired);
  }

  // Declare the stream-connectivity graph the stages above were wired to
  // and attach live probes, so (a) pw::lint verifies the pipeline before
  // cycle 0 and (b) a deadlock diagnosis names the blocking FIFO.
  {
    PipelineGraphSpec spec;
    spec.dims = dims;
    spec.chunk_y = config.kernel.chunk_y;
    spec.fifo_depth = config.fifo_depth;
    spec.shift_ii = config.shift_ii;
    lint::PipelineGraph graph;
    lint::StageNode advance;
    advance.name = "cycle_advance";
    advance.detached = true;
    graph.add_stage(std::move(advance));
    const auto probe = [](const auto& stream) {
      return [&stream] {
        return lint::StreamProbe{stream.size(), stream.capacity(),
                                 stream.eos()};
      };
    };
    for (std::size_t p = 0; p < ranges.size(); ++p) {
      const std::string prefix =
          ranges.size() == 1 ? std::string() : "k" + std::to_string(p) + "/";
      const Fig2Streams ids = add_fig2_pipeline(graph, prefix, spec);
      const Fifos& f = *fifos[p];
      graph.set_probe(ids.raster, probe(f.raster));
      graph.set_probe(ids.stencils, probe(f.stencils));
      graph.set_probe(ids.rep_u, probe(f.rep_u));
      graph.set_probe(ids.rep_v, probe(f.rep_v));
      graph.set_probe(ids.rep_w, probe(f.rep_w));
      graph.set_probe(ids.out_u, probe(f.out_u));
      graph.set_probe(ids.out_v, probe(f.out_v));
      graph.set_probe(ids.out_w, probe(f.out_w));
    }
    engine.set_graph(std::move(graph));
    engine.set_lint_policy(config.lint);
  }

  CycleSimResult result;
  // Generous deadlock guard: II * streamed beats plus drain slack, times
  // the worst-case serialisation over pipelines.
  const std::uint64_t budget =
      static_cast<std::uint64_t>(config.shift_ii) * 4 *
          static_cast<std::uint64_t>(std::max<std::size_t>(1, ranges.size())) *
          (plan.streamed_values_per_field() + 1024) +
      1'000'000;
  result.report = engine.run(budget);
  result.cells = retired;
  return result;
}

}  // namespace

CycleSimResult run_kernel_cycle_sim(const grid::WindState& state,
                                    const advect::PwCoefficients& c,
                                    advect::SourceTerms& out,
                                    const CycleSimConfig& config,
                                    std::optional<XRange> xrange) {
  const grid::GridDims dims = state.u.dims();
  const XRange xr = xrange.value_or(XRange{0, dims.nx});
  if (xr.end > dims.nx || xr.begin >= xr.end) {
    throw std::invalid_argument("run_kernel_cycle_sim: bad x-range");
  }
  return run_pipelines(state, c, out, config, {xr});
}

CycleSimResult run_multi_kernel_cycle_sim(
    const grid::WindState& state, const advect::PwCoefficients& c,
    advect::SourceTerms& out, const CycleSimConfig& config,
    std::size_t kernels) {
  return run_pipelines(state, c, out, config,
                       partition_x(state.u.nx(), kernels));
}

}  // namespace pw::kernel
