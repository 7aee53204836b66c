// Measured-on-host throughput of the stencil providers: the paper's 3D
// shift buffer versus the previous-generation delay line. Whole-kernel
// solves are timed by perfbench (api.solve_ms.<kernel>.<backend>), not
// here.
//
// This bench owns its main: before handing over to google-benchmark it runs
// a short instrumented sweep of the shift buffer through a
// pw::obs::MetricsRegistry and dumps the result as BENCH_micro_shift_buffer
// .json (override with --json=<path>), so reproduce.sh gets a
// machine-readable artefact even when the full benchmark run is skipped.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pw/baseline/delay_line.hpp"
#include "pw/kernel/shift_buffer.hpp"
#include "pw/util/rng.hpp"
#include "pw/util/timer.hpp"

namespace {

void BM_ShiftBuffer3D(benchmark::State& state) {
  const auto face = static_cast<std::size_t>(state.range(0));
  pw::kernel::ShiftBuffer3D buffer(face, 66);
  pw::util::Rng rng(1);
  std::vector<double> inputs(face * 66 * 4);
  for (auto& v : inputs) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::size_t n = 0;
  for (auto _ : state) {
    auto out = buffer.push(inputs[n]);
    benchmark::DoNotOptimize(out);
    n = (n + 1) % inputs.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShiftBuffer3D)->Arg(10)->Arg(18)->Arg(34)->Arg(66);

void BM_DelayLineStencil(benchmark::State& state) {
  const auto face = static_cast<std::size_t>(state.range(0));
  pw::baseline::DelayLineStencil buffer(face, 66);
  pw::util::Rng rng(2);
  std::vector<double> inputs(face * 66 * 4);
  for (auto& v : inputs) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::size_t n = 0;
  for (auto _ : state) {
    auto out = buffer.push(inputs[n]);
    benchmark::DoNotOptimize(out);
    n = (n + 1) % inputs.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DelayLineStencil)->Arg(10)->Arg(18)->Arg(34)->Arg(66);

/// One quick instrumented pass per shift-buffer face size, feeding the
/// registry that becomes the JSON artefact. Kept deliberately small (a few
/// ms per face) so the artefact is produced even on smoke runs.
void record_instrumented_sweep(pw::obs::MetricsRegistry& registry) {
  using namespace pw;
  for (const std::size_t face : {std::size_t{10}, std::size_t{18},
                                 std::size_t{34}, std::size_t{66}}) {
    kernel::ShiftBuffer3D buffer(face, 66);
    util::Rng rng(1);
    std::vector<double> inputs(face * 66 * 4);
    for (auto& v : inputs) {
      v = rng.uniform(-1.0, 1.0);
    }
    const std::size_t pushes = 1u << 20;
    std::size_t n = 0;
    util::WallTimer timer;
    for (std::size_t i = 0; i < pushes; ++i) {
      auto out = buffer.push(inputs[n]);
      benchmark::DoNotOptimize(out);
      n = (n + 1) % inputs.size();
    }
    const double seconds = timer.seconds();
    const std::string prefix =
        "micro.shift_buffer.face_" + std::to_string(face);
    registry.counter_add(prefix + ".pushes", pushes);
    registry.gauge_set(prefix + ".pushes_per_s",
                       static_cast<double>(pushes) / seconds);
    registry.observe("micro.shift_buffer.pass_seconds", seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const pw::util::Cli cli(argc, argv);

  pw::obs::MetricsRegistry registry;
  record_instrumented_sweep(registry);
  const int json_status =
      pw::bench::emit_registry(registry, "BENCH_micro_shift_buffer.json", cli);
  if (json_status != 0) {
    return json_status;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
