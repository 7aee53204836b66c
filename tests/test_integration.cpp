// Larger-scale integration tests: the full stack at grid sizes closer to
// (scaled-down) production, crossing module boundaries in one pass, plus
// failure-injection checks that the simulation stack reports rather than
// hangs when starved.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/cpu_baseline.hpp"
#include "pw/api/request.hpp"
#include "pw/fpga/memory_model.hpp"
#include "pw/grid/compare.hpp"
#include "pw/kernel/cycle_stages.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/monc/components.hpp"
#include "pw/monc/model.hpp"
#include "pw/exp/devices.hpp"
#include "pw/fpga/resource_estimate.hpp"
#include "pw/ocl/host_driver.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw {
namespace {

TEST(Integration, MillionCellAdvectionAllPathsAgree) {
  // ~1M cells: the paper's smallest evaluation grid, scaled for CI.
  const grid::GridDims dims{128, 128, 64};
  auto state = std::make_unique<grid::WindState>(dims);
  grid::init_random(*state, 2026);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));

  util::ThreadPool pool;
  advect::CpuAdvectorBaseline baseline(pool);
  auto cpu_out = std::make_unique<advect::SourceTerms>(dims);
  const auto cpu_stats = baseline.run(*state, coefficients, *cpu_out);
  EXPECT_GT(cpu_stats.gflops, 0.1);

  auto fpga_out = std::make_unique<advect::SourceTerms>(dims);
  const auto kernel_stats = kernel::run_kernel_fused(
      *state, coefficients, *fpga_out, kernel::KernelConfig{64});
  EXPECT_EQ(kernel_stats.stencils_emitted, dims.cells());

  EXPECT_TRUE(grid::compare_interior(cpu_out->su, fpga_out->su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(cpu_out->sv, fpga_out->sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(cpu_out->sw, fpga_out->sw).bit_equal());
}

TEST(Integration, HostDriverOnSixteenRanksWorthOfChunks) {
  const grid::GridDims dims{64, 48, 32};
  auto state = std::make_unique<grid::WindState>(dims);
  grid::init_taylor_green(*state, 2.0);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 50.0));

  auto reference = std::make_unique<advect::SourceTerms>(dims);
  advect::advect_reference(*state, coefficients, *reference);

  ocl::HostOptions config;
  config.x_chunks = 16;
  const stencil::EngineConfig engine{.engine = stencil::Engine::kFused,
                                     .chunk_y = 16};
  advect::SourceTerms out(dims);
  const auto result = ocl::HostDriver(config, engine)
                          .run(stencil::advect_spec(),
                               kernel::inputs<3>(*state),
                               kernel::outputs<3>(out),
                               stencil::AdvectOp(coefficients, dims.nz));
  EXPECT_EQ(result.chunks, 16u);
  EXPECT_TRUE(grid::compare_interior(reference->su, out.su).bit_equal());
}

TEST(Integration, DistributedModelStepMatchesGlobal) {
  // One full advection inside the decomposition at a mid-size grid.
  const grid::GridDims dims{48, 48, 32};
  auto state = std::make_unique<grid::WindState>(dims);
  grid::init_random(*state, 5);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
  auto reference = std::make_unique<advect::SourceTerms>(dims);
  advect::advect_reference(*state, coefficients, *reference);

  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 16;
  shard::ShardOptions shard_options;
  shard_options.devices = 8;
  shard::ShardedSolver solver(shard_options);
  const api::SolveResult out =
      solver.solve(api::borrow_request(*state, coefficients, options));
  ASSERT_TRUE(out.ok()) << out.message;
  EXPECT_EQ(solver.last_report().devices_used, 8u);
  EXPECT_TRUE(grid::compare_interior(reference->su, out.terms->su).bit_equal());
}

TEST(Integration, MiniMoncTenRk3StepsStayFinite) {
  monc::Model model(grid::Geometry::uniform({32, 32, 32}, 100.0, 100.0, 50.0),
                    7);
  util::ThreadPool pool;
  model.add_component(monc::make_pw_advection(
      model.coefficients(), monc::AdvectionBackend::kCpuThreads, &pool));
  model.add_component(monc::make_scalar_advection(model.coefficients()));
  model.add_component(monc::make_buoyancy());
  model.add_component(monc::make_diffusion(5.0, model.geometry()));
  for (int step = 0; step < 10; ++step) {
    model.step(0.1, monc::Integrator::kRk3);
  }
  EXPECT_TRUE(std::isfinite(model.kinetic_energy()));
}

// --- failure injection ---------------------------------------------------

TEST(FailureInjection, StarvedPipelineReportsIncompleteNotHang) {
  // A memory that grants nothing: the cycle engine must exhaust its budget
  // and report completed=false instead of spinning forever.
  class DeadMemory final : public dataflow::IRateLimiter {
  public:
    bool request(std::size_t, std::size_t) override { return false; }
    void advance_cycle() override {}
  };

  const grid::GridDims dims{4, 4, 4};
  grid::WindState state(dims);
  grid::init_random(state, 1);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));

  DeadMemory dead;
  advect::SourceTerms out(dims);
  kernel::CycleSimConfig config;
  config.memory = &dead;
  const auto result =
      kernel::run_kernel_cycle_sim(state, coefficients, out, config);
  EXPECT_FALSE(result.report.completed);
  EXPECT_EQ(result.cells, 0u);
  // Every worker stage stalled for the whole run.
  EXPECT_DOUBLE_EQ(result.report.occupancy("read_data"), 0.0);
}

TEST(FailureInjection, TricklingMemoryStillCompletesExactly) {
  // A pathologically slow (but non-zero) memory: ~1 beat granted every
  // 12 cycles. The run must still complete with exact results.
  fpga::MemoryTech tech;
  tech.per_kernel_sustained_gbps = 24.0 * 300e6 / 12.0 / 1e9;
  tech.system_sustained_gbps = tech.per_kernel_sustained_gbps;
  tech.burst_knee_doubles = 0.0;
  fpga::MemoryRateLimiter limiter(tech, 300e6, 1024);

  const grid::GridDims dims{3, 3, 4};
  grid::WindState state(dims);
  grid::init_random(state, 2);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
  auto reference = std::make_unique<advect::SourceTerms>(dims);
  advect::advect_reference(state, coefficients, *reference);

  advect::SourceTerms out(dims);
  kernel::CycleSimConfig config;
  config.kernel.chunk_y = 0;
  config.memory = &limiter;
  const auto result =
      kernel::run_kernel_cycle_sim(state, coefficients, out, config);
  ASSERT_TRUE(result.report.completed);
  EXPECT_LT(result.cells_per_cycle(), 0.1);
  EXPECT_TRUE(grid::compare_interior(reference->su, out.su).bit_equal());
}

TEST(FailureInjection, OversubscribedDeviceRejectedByFitter) {
  // device_explorer-style misuse: asking for more kernels than fit is
  // reported by the fitter, and the experiment model still runs (the
  // paper could not build such a bitstream; the model flags it instead).
  const auto devices = exp::paper_devices();
  kernel::KernelConfig config;
  config.chunk_y = 64;
  fpga::KernelEstimateOptions options;
  options.nz = 64;
  const auto usage =
      fpga::estimate_kernel(config, options, fpga::Vendor::kXilinx);
  EXPECT_LT(fpga::max_kernels(devices.alveo, usage), 12u);
}


TEST(FailureInjection, DeadlockDetectedAndDiagnosed) {
  // The detector converts a would-be budget burn into an early, diagnosed
  // abort: the starved pipeline stops within the detection window.
  class DeadMemory final : public dataflow::IRateLimiter {
  public:
    bool request(std::size_t, std::size_t) override { return false; }
    void advance_cycle() override {}
  };
  const grid::GridDims dims{4, 4, 4};
  grid::WindState state(dims);
  grid::init_random(state, 1);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));

  DeadMemory dead;
  advect::SourceTerms out(dims);
  kernel::CycleSimConfig config;
  config.memory = &dead;
  const auto result =
      kernel::run_kernel_cycle_sim(state, coefficients, out, config);
  EXPECT_FALSE(result.report.completed);
  EXPECT_TRUE(result.report.deadlocked);
  EXPECT_NE(result.report.deadlock_diagnosis.find("read_data"),
            std::string::npos);
  // Aborted within the detection window, far below the cycle budget.
  EXPECT_LT(result.report.cycles, 5000u);
}

}  // namespace
}  // namespace pw
