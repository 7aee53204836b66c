// Shard differential + chaos battery: a sharded solve must be bit-exact
// with the single-device facade for every registered kernel at every shard
// count — fault-free AND while a fault plan kills a whole simulated device
// mid-solve (correct answer, flagged degraded). Plus the exchange cost
// model, the exchange-graph lint and a SolveService serving sharded solves.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pw/advect/coefficients.hpp"
#include "pw/api/request.hpp"
#include "pw/api/solver.hpp"
#include "pw/decomp/halo_plan.hpp"
#include "pw/fault/fault.hpp"
#include "pw/fault/injector.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/serve/service.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/shard/topology.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"

namespace {

using namespace pw;

// A grid every shard count in the battery can tile: 21 x 12 splits over
// 1, 2, 4 and 7 near-square process grids with every rank non-empty.
constexpr grid::GridDims kDims{21, 12, 6};
constexpr std::size_t kShardCounts[] = {1, 2, 4, 7};

struct Fixture {
  grid::WindState state{kDims};
  advect::PwCoefficients coefficients;

  Fixture()
      : coefficients(advect::PwCoefficients::from_geometry(
            grid::Geometry::uniform(kDims, 100.0, 100.0, 50.0))) {
    grid::init_random(state, 4242);
  }
};

api::SolveRequest request_for(const Fixture& f, api::Kernel kernel,
                              api::Backend backend) {
  api::SolverOptions options;
  options.backend = backend;
  options.kernel.chunk_y = 8;
  switch (kernel) {
    case api::Kernel::kAdvectPw:
      options.kernel_spec = api::AdvectPwOptions{};
      break;
    case api::Kernel::kDiffusion:
      options.kernel_spec = api::DiffusionOptions{};
      break;
    case api::Kernel::kPoissonJacobi: {
      api::PoissonOptions poisson;
      poisson.iterations = 5;
      options.kernel_spec = poisson;
      break;
    }
  }
  api::SolveRequest request;
  request.state = std::make_shared<grid::WindState>(f.state);
  request.coefficients =
      std::make_shared<advect::PwCoefficients>(f.coefficients);
  request.options = options;
  return request;
}

/// Advection coefficients for `levels` levels over `dims`' horizontal extent.
std::shared_ptr<const advect::PwCoefficients> coefficients_with_levels(
    const grid::GridDims& dims, std::size_t levels) {
  return std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(grid::Geometry::uniform(
          {dims.nx, dims.ny, levels}, 100.0, 100.0, 50.0)));
}

void expect_bit_exact(const api::SolveResult& a, const api::SolveResult& b) {
  ASSERT_TRUE(a.ok()) << a.message;
  ASSERT_TRUE(b.ok()) << b.message;
  ASSERT_TRUE(a.terms && b.terms);
  EXPECT_TRUE(grid::compare_interior(a.terms->su, b.terms->su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(a.terms->sv, b.terms->sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(a.terms->sw, b.terms->sw).bit_equal());
}

// ---------------------------------------------------------------------------
// Differential battery: every registered kernel x every shard count.

class ShardDifferential
    : public ::testing::TestWithParam<std::tuple<api::Kernel, std::size_t>> {
};

TEST_P(ShardDifferential, MatchesSingleDeviceBitExact) {
  const auto [kernel, shards] = GetParam();
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, kernel, api::Backend::kFused);

  const api::SolveResult single = api::Solver().solve(request);
  ASSERT_TRUE(single.ok()) << single.message;

  shard::ShardOptions options;
  options.devices = shards;
  shard::ShardedSolver solver(options);
  const api::SolveResult sharded = solver.solve(request);
  expect_bit_exact(single, sharded);
  EXPECT_FALSE(sharded.degraded);
  EXPECT_EQ(solver.last_report().devices_used, shards);
  EXPECT_EQ(solver.last_report().exchanges, solver.last_report().sweeps);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllCounts, ShardDifferential,
    ::testing::Combine(::testing::ValuesIn(api::kAllKernels),
                       ::testing::ValuesIn(kShardCounts)));

TEST(ShardDifferential, EveryBackendEngineShardsBitExact) {
  // The per-shard pass runs the same engine the facade maps each backend
  // to; all double engines must stay bit-exact under sharding.
  const Fixture f;
  for (const api::Backend backend : api::kAllBackends) {
    const api::SolveRequest request =
        request_for(f, api::Kernel::kDiffusion, backend);
    const api::SolveResult single = api::Solver().solve(request);
    shard::ShardOptions options;
    options.devices = 4;
    shard::ShardedSolver solver(options);
    const api::SolveResult sharded = solver.solve(request);
    expect_bit_exact(single, sharded);
  }
}

// ---------------------------------------------------------------------------
// Chaos: kill a whole simulated device; the answer must stay bit-exact and
// arrive flagged degraded through the re-partition ladder.

fault::FaultPlan kill_device_plan(std::size_t device, std::uint64_t after) {
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "shard." + std::to_string(device) + ".*";
  rule.kind = fault::FaultKind::kKernelTimeout;
  rule.probability = 1.0;
  rule.after = after;
  plan.rules.push_back(rule);
  return plan;
}

TEST(ShardChaos, WholeShardDeathRepartitionsBitExact) {
  for (const api::Kernel kernel : api::kAllKernels) {
    const Fixture f;
    const api::SolveRequest request =
        request_for(f, kernel, api::Backend::kFused);
    const api::SolveResult single = api::Solver().solve(request);

    fault::FaultInjector injector(kill_device_plan(1, 0));
    shard::ShardOptions options;
    options.devices = 4;
    shard::ShardedSolver solver(options);
    api::SolveResult sharded;
    {
      fault::ScopedArm arm(injector);
      sharded = solver.solve(request);
    }
    expect_bit_exact(single, sharded);
    EXPECT_TRUE(sharded.degraded);
    EXPECT_GE(sharded.attempts, 2u);
    EXPECT_EQ(solver.dead_devices(), 1u);
    EXPECT_EQ(solver.last_report().repartitions, 1u);
    EXPECT_LT(solver.last_report().devices_used, 4u);
  }
}

TEST(ShardChaos, MidSolveDeathDuringIterativeKernel) {
  // after=1: device 2 survives its first Jacobi sweep, then dies — the
  // solve is already mid-flight when the board disappears.
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kPoissonJacobi, api::Backend::kFused);
  const api::SolveResult single = api::Solver().solve(request);

  fault::FaultInjector injector(kill_device_plan(2, 1));
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  api::SolveResult sharded;
  {
    fault::ScopedArm arm(injector);
    sharded = solver.solve(request);
  }
  expect_bit_exact(single, sharded);
  EXPECT_TRUE(sharded.degraded);
  EXPECT_GE(injector.report().injected, 1u);
}

TEST(ShardChaos, DeadDevicesStayDeadAcrossSolves) {
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kReference);
  const api::SolveResult single = api::Solver().solve(request);

  fault::FaultInjector injector(kill_device_plan(0, 0));
  shard::ShardOptions options;
  options.devices = 2;
  shard::ShardedSolver solver(options);
  {
    fault::ScopedArm arm(injector);
    (void)solver.solve(request);
  }
  // Disarmed second solve: device 0 must remain excluded (a killed board
  // does not heal), and the result stays degraded but correct.
  const api::SolveResult again = solver.solve(request);
  expect_bit_exact(single, again);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(solver.dead_devices(), 1u);
}

TEST(ShardChaos, AllDevicesDeadFallsBackToCpu) {
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);
  const api::SolveResult single = api::Solver().solve(request);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "shard.*";
  rule.kind = fault::FaultKind::kKernelTimeout;
  plan.rules.push_back(rule);
  fault::FaultInjector injector(plan);

  shard::ShardOptions options;
  options.devices = 2;
  shard::ShardedSolver solver(options);
  api::SolveResult result;
  {
    fault::ScopedArm arm(injector);
    result = solver.solve(request);
  }
  expect_bit_exact(single, result);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(solver.last_report().cpu_failover);
  EXPECT_EQ(result.backend, api::Backend::kCpuBaseline);
}

TEST(ShardChaos, FailoverDisabledSurfacesBackendFault) {
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);
  fault::FaultInjector injector(kill_device_plan(1, 0));
  shard::ShardOptions options;
  options.devices = 4;
  options.failover = false;
  shard::ShardedSolver solver(options);
  api::SolveResult result;
  {
    fault::ScopedArm arm(injector);
    result = solver.solve(request);
  }
  EXPECT_EQ(result.error, api::SolveError::kBackendFault);
}

TEST(ShardChaos, CoefficientMismatchKillsNoDevice) {
  // Coefficients for nz -/+ 1 levels used to throw inside every shard's
  // pass, which marked all four devices dead and fell back to the CPU rung.
  const Fixture f;
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  for (const std::size_t levels : {kDims.nz - 1, kDims.nz + 1}) {
    api::SolveRequest request =
        request_for(f, api::Kernel::kAdvectPw, api::Backend::kFused);
    request.coefficients = coefficients_with_levels(kDims, levels);
    api::SolveResult result;
    EXPECT_NO_THROW(result = solver.solve(request));
    EXPECT_EQ(result.error, api::SolveError::kCoefficientMismatch);
    EXPECT_FALSE(result.degraded);
  }
  EXPECT_EQ(solver.dead_devices(), 0u);
  const api::SolveResult well_formed = solver.solve(
      request_for(f, api::Kernel::kAdvectPw, api::Backend::kFused));
  EXPECT_TRUE(well_formed.ok()) << well_formed.message;
  EXPECT_EQ(solver.last_report().devices_used, 4u);
}

// ---------------------------------------------------------------------------
// Pinned fault schedules: a seeded plan on a fixed sequence of solves fires
// at the same hits, kills the same devices, re-partitions as often and
// yields the same bits, whatever thread runs the exchange. The expected
// values were captured from the solver that exchanged halos serially on the
// calling thread. Only sites one thread consults in a fixed order are
// armed: a device's own sites, and every device's exchange site (checked in
// device order once per sweep). A glob over several devices' pass sites
// would depend on thread timing.

/// FNV-1a over the bit patterns of a result's interior values.
std::uint64_t result_bits(const api::SolveResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const grid::FieldD* field :
       {&result.terms->su, &result.terms->sv, &result.terms->sw}) {
    const grid::GridDims d = field->dims();
    for (std::size_t i = 0; i < d.nx; ++i) {
      for (std::size_t j = 0; j < d.ny; ++j) {
        for (std::size_t k = 0; k < d.nz; ++k) {
          const double value =
              field->at(static_cast<std::ptrdiff_t>(i),
                        static_cast<std::ptrdiff_t>(j),
                        static_cast<std::ptrdiff_t>(k));
          std::uint64_t bits = 0;
          std::memcpy(&bits, &value, sizeof bits);
          hash = (hash ^ bits) * 0x100000001b3ull;
        }
      }
    }
  }
  return hash;
}

/// Three solves of `request` on a fresh 4-device solver under `plan`: the
/// schedule, the dead devices, then per solve its re-partitions and bits.
std::string pinned_run(const fault::FaultPlan& plan,
                       const api::SolveRequest& request) {
  fault::FaultInjector injector(plan);
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  const std::uint64_t single = result_bits(api::Solver().solve(request));
  std::string run;
  {
    fault::ScopedArm arm(injector);
    for (int solve = 0; solve < 3; ++solve) {
      const api::SolveResult result = solver.solve(request);
      EXPECT_TRUE(result.ok()) << result.message;
      if (!result.ok()) {
        return run;
      }
      EXPECT_EQ(result_bits(result), single);
      char bits[24];
      std::snprintf(bits, sizeof bits, "%016llx",
                    static_cast<unsigned long long>(result_bits(result)));
      run += " r" + std::to_string(solver.last_report().repartitions) + ":" +
             bits;
    }
  }
  return injector.report().schedule() + " dead " +
         std::to_string(solver.dead_devices()) + run;
}

TEST(ShardChaos, SeededFaultSchedulesArePinned) {
  fault::FaultPlan device_two;
  device_two.rules.push_back({.site = "shard.2.*",
                              .kind = fault::FaultKind::kKernelTimeout,
                              .after = 5});
  // The matcher takes a trailing wildcard only, so "every device's exchange
  // site" is one rule per device.
  fault::FaultPlan exchanges;
  exchanges.seed = 2323;
  for (std::size_t device = 0; device < 4; ++device) {
    exchanges.rules.push_back(
        {.site = "shard." + std::to_string(device) + ".exchange",
         .kind = fault::FaultKind::kTransferFailure,
         .probability = 0.3});
  }

  const Fixture f;
  api::SolveRequest poisson =
      request_for(f, api::Kernel::kPoissonJacobi, api::Backend::kFused);
  poisson.options.kernel_spec = api::PoissonOptions{.iterations = 16};
  const api::SolveRequest advection =
      request_for(f, api::Kernel::kAdvectPw, api::Backend::kFused);

  EXPECT_EQ(pinned_run(device_two, poisson),
            "0:[5] dead 1 r1:b8373c37e6dbd302 r0:b8373c37e6dbd302 "
            "r0:b8373c37e6dbd302");
  EXPECT_EQ(pinned_run(device_two, advection),
            "0:[5] dead 1 r0:51587ba77ab34daa r0:51587ba77ab34daa "
            "r1:51587ba77ab34daa");
  EXPECT_EQ(pinned_run(exchanges, poisson),
            "0:[7] 1:[2] 2:[4] 3:[4] dead 4 r4:b8373c37e6dbd302 "
            "r0:b8373c37e6dbd302 r0:b8373c37e6dbd302");
  EXPECT_EQ(pinned_run(exchanges, advection),
            "0:[] 1:[2] 2:[] 3:[] dead 1 r0:51587ba77ab34daa "
            "r0:51587ba77ab34daa r1:51587ba77ab34daa");
}

// ---------------------------------------------------------------------------
// Exchange cost model.

TEST(Interconnect, NamesRoundTripAndParseShortForms) {
  using shard::Interconnect;
  for (const Interconnect kind :
       {Interconnect::kPcieHostBounce, Interconnect::kDeviceToDevice}) {
    EXPECT_EQ(shard::parse_interconnect(shard::to_string(kind)), kind);
  }
  EXPECT_EQ(shard::parse_interconnect("pcie"),
            Interconnect::kPcieHostBounce);
  EXPECT_EQ(shard::parse_interconnect("d2d"),
            Interconnect::kDeviceToDevice);
  EXPECT_FALSE(shard::parse_interconnect("token_ring").has_value());
}

TEST(Interconnect, HostBounceCostsMoreThanDirectLinks) {
  const auto decomposition = decomp::Decomposition::auto_grid(kDims, 4);
  const auto plan = decomp::build_halo_plan(decomposition);

  shard::InterconnectModel pcie;
  pcie.kind = shard::Interconnect::kPcieHostBounce;
  shard::InterconnectModel d2d = pcie;
  d2d.kind = shard::Interconnect::kDeviceToDevice;

  const auto pcie_cost = shard::model_exchange(plan, 3, pcie, 4);
  const auto d2d_cost = shard::model_exchange(plan, 3, d2d, 4);
  EXPECT_GT(pcie_cost.seconds, d2d_cost.seconds);
  EXPECT_EQ(pcie_cost.bytes, d2d_cost.bytes);
  EXPECT_EQ(pcie_cost.hops, 2 * d2d_cost.hops);  // bounce = 2 DMA hops
  EXPECT_GT(pcie_cost.recv_phase_s, 0.0);
  EXPECT_EQ(d2d_cost.recv_phase_s, 0.0);
}

TEST(Interconnect, SingleShardExchangeIsFree) {
  const auto decomposition = decomp::Decomposition::auto_grid(kDims, 1);
  const auto plan = decomp::build_halo_plan(decomposition);
  const auto cost =
      shard::model_exchange(plan, 3, shard::InterconnectModel{}, 1);
  EXPECT_EQ(cost.bytes, 0u);  // every message is a local periodic wrap
  EXPECT_EQ(cost.messages, 0u);
  EXPECT_DOUBLE_EQ(cost.seconds, 0.0);
}

TEST(Interconnect, ExchangedBytesScaleWithFieldArity) {
  const auto decomposition = decomp::Decomposition::auto_grid(kDims, 4);
  const auto plan = decomp::build_halo_plan(decomposition);
  const shard::InterconnectModel model;
  const auto one = shard::model_exchange(plan, 1, model, 4);
  const auto three = shard::model_exchange(plan, 3, model, 4);
  EXPECT_EQ(three.bytes, 3 * one.bytes);
}

// ---------------------------------------------------------------------------
// Exchange-graph lint.

TEST(ExchangeLint, WellFormedPlanPasses) {
  for (const std::size_t shards : kShardCounts) {
    const auto decomposition =
        decomp::Decomposition::auto_grid(kDims, shards);
    const auto plan = decomp::build_halo_plan(decomposition);
    const lint::LintReport report =
        shard::lint_exchange(decomposition, plan);
    EXPECT_TRUE(report.passed()) << report.summary();
  }
}

TEST(ExchangeLint, CatchesMissingWrongOwnerAndWrongSize) {
  const auto decomposition = decomp::Decomposition::auto_grid(kDims, 4);
  auto plan = decomp::build_halo_plan(decomposition);

  auto dropped = plan;
  dropped.messages.pop_back();
  EXPECT_FALSE(shard::lint_exchange(decomposition, dropped).passed());

  auto misrouted = plan;
  misrouted.messages.front().src =
      (misrouted.messages.front().src + 1) % decomposition.ranks();
  EXPECT_FALSE(shard::lint_exchange(decomposition, misrouted).passed());

  auto undersized = plan;
  undersized.messages.front().cells -= 1;
  EXPECT_FALSE(shard::lint_exchange(decomposition, undersized).passed());
}

TEST(ExchangeLint, PlanBytesMatchDecompositionAccounting) {
  for (const std::size_t shards : kShardCounts) {
    const auto decomposition =
        decomp::Decomposition::auto_grid(kDims, shards);
    const auto plan = decomp::build_halo_plan(decomposition);
    EXPECT_EQ(plan.bytes_per_field(),
              decomposition.halo_exchange_bytes_per_field());
  }
}

// ---------------------------------------------------------------------------
// Spec-derived halo field arity (the fix for the hardcoded 3-field
// assumption the first scale-out projection shipped with).

TEST(HaloArity, DerivedFromStencilSpecNotHardcoded) {
  EXPECT_EQ(shard::halo_exchange_fields(stencil::advect_spec()), 3u);
  EXPECT_EQ(shard::halo_exchange_fields(stencil::diffusion_spec()), 3u);
  EXPECT_EQ(shard::halo_exchange_fields(stencil::poisson_spec()), 1u);

  const auto decomposition = decomp::Decomposition::auto_grid(kDims, 4);
  const std::size_t per_field =
      decomposition.halo_exchange_bytes_per_field();
  EXPECT_EQ(shard::halo_traffic_bytes_per_sweep(decomposition,
                                                stencil::poisson_spec()),
            per_field);
  EXPECT_EQ(shard::halo_traffic_bytes_per_sweep(decomposition,
                                                stencil::advect_spec()),
            3 * per_field);
}

TEST(HaloArity, SolverExchangesOnlyWrittenFields) {
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  const Fixture f;
  (void)solver.solve(
      request_for(f, api::Kernel::kPoissonJacobi, api::Backend::kReference));
  EXPECT_EQ(solver.last_report().exchanged_fields, 1u);
  (void)solver.solve(
      request_for(f, api::Kernel::kDiffusion, api::Backend::kReference));
  EXPECT_EQ(solver.last_report().exchanged_fields, 3u);
}

// ---------------------------------------------------------------------------
// Sharded serving: a SolveService whose every solve runs on one resident
// ShardedSolver, behind the service's admission, scheduler and cache.

serve::ServiceConfig sharded_config(std::size_t devices) {
  serve::ServiceConfig config;
  config.shard.emplace();
  config.shard->devices = devices;
  return config;
}

TEST(ShardService, IdenticalRequestHitsTheServiceCache) {
  serve::SolveService service(sharded_config(4));
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);

  const api::SolveResult first = service.submit(request).wait();
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_FALSE(first.cached);
  expect_bit_exact(api::Solver().solve(request), first);
  const api::SolveResult second = service.submit(request).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  expect_bit_exact(first, second);

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.computed, 1u);
  EXPECT_EQ(report.result_cache_hits, 1u);
  EXPECT_EQ(service.sharded_solver()->last_report().devices_used, 4u);
}

TEST(ShardService, DeviceDeathMigratesPlacementAndFlagsDegraded) {
  // The solve that loses device 1 re-partitions over the survivors. Its
  // answer ran the requested backend, so it is cached like any other.
  serve::SolveService service(sharded_config(4));
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);
  const api::SolveResult single = api::Solver().solve(request);

  fault::FaultInjector injector(kill_device_plan(1, 0));
  api::SolveResult result;
  {
    fault::ScopedArm arm(injector);
    result = service.submit(request).wait();
  }
  expect_bit_exact(single, result);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.cached);
  shard::ShardedSolver& solver = *service.sharded_solver();
  EXPECT_EQ(solver.dead_devices(), 1u);
  EXPECT_EQ(solver.metrics().counter("shard.1.faults"), 1u);
  EXPECT_EQ(solver.last_report().devices_used, 3u);

  // The next identical request: a bit-exact hit on that answer.
  const api::SolveResult again = service.submit(request).wait();
  expect_bit_exact(single, again);
  EXPECT_TRUE(again.cached);
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.computed, 1u);
  EXPECT_EQ(report.result_cache_hits, 1u);
  EXPECT_EQ(report.failovers, 2u);  // each degraded answer delivered
  EXPECT_EQ(solver.metrics().counter("shard.deaths"), 1u);
}

TEST(ShardService, RejectsRequestsWithoutState) {
  serve::SolveService service(sharded_config(2));
  const api::SolveResult result = service.submit(api::SolveRequest{}).wait();
  EXPECT_EQ(result.error, api::SolveError::kEmptyGrid);
  EXPECT_EQ(service.report().rejected_options, 1u);
  EXPECT_EQ(service.report().computed, 0u);
}

TEST(ShardService, ConcurrentSubmittersAreSerialised) {
  // Every solve runs on the one shared ShardedSolver; its solves must not
  // interleave, whichever worker runs them.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 30;
  const grid::GridDims dims{48, 48, 16};
  serve::SolveService service(sharded_config(4));

  // Distinct seeded inputs, so every submission misses the cache.
  std::vector<api::SolveRequest> requests;
  std::vector<api::SolveResult> expected;
  for (std::size_t n = 0; n < kThreads * kPerThread; ++n) {
    auto state = std::make_shared<grid::WindState>(dims);
    grid::init_random(*state, 9000 + n);
    api::SolverOptions options;
    options.backend = api::Backend::kReference;
    options.kernel_spec = api::kAllKernels[n % std::size(api::kAllKernels)];
    if (options.kernel_spec.kernel() == api::Kernel::kPoissonJacobi) {
      options.kernel_spec = api::PoissonOptions{.iterations = 3};
    }
    requests.push_back(
        options.kernel_spec.kernel() == api::Kernel::kAdvectPw
            ? api::make_request(state, coefficients_with_levels(dims, dims.nz),
                                options)
            : api::make_request(state, options));
    expected.push_back(api::Solver().solve(requests.back()));
  }

  std::vector<api::SolveResult> results(requests.size());
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t n = i * kThreads + t;
        results[n] = service.submit(requests[n]).wait();
      }
    });
  }
  for (std::thread& submitter : submitters) {
    submitter.join();
  }
  for (std::size_t n = 0; n < requests.size(); ++n) {
    SCOPED_TRACE(n);
    expect_bit_exact(expected[n], results[n]);
    EXPECT_FALSE(results[n].degraded);
  }
  EXPECT_EQ(service.report().computed, requests.size());
  EXPECT_EQ(service.sharded_solver()->dead_devices(), 0u);
}

// ---------------------------------------------------------------------------
// Resident partitions: decomposition, halo plan, shard buffers and workers
// are built once per (grid dims, alive devices) and reused across solves.

std::uint64_t partitions_built(shard::ShardedSolver& solver) {
  return solver.metrics().counter("shard.partitions_built");
}

TEST(ShardResident, MixedBoundaryRulesShareOnePartition) {
  // Poisson's Dirichlet edges after a periodic kernel: every exchange on a
  // reused partition must rewrite every halo cell, the zeros included.
  const Fixture f;
  const api::Kernel sequence[] = {
      api::Kernel::kAdvectPw, api::Kernel::kPoissonJacobi,
      api::Kernel::kDiffusion, api::Kernel::kPoissonJacobi,
      api::Kernel::kAdvectPw};
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    shard::ShardOptions options;
    options.devices = shards;
    shard::ShardedSolver solver(options);
    for (const api::Kernel kernel : sequence) {
      SCOPED_TRACE(api::to_string(kernel));
      const api::SolveRequest request =
          request_for(f, kernel, api::Backend::kFused);
      expect_bit_exact(api::Solver().solve(request), solver.solve(request));
      EXPECT_EQ(solver.last_report().devices_used, shards);
    }
    EXPECT_EQ(partitions_built(solver), 1u);
  }
}

TEST(ShardResident, RebuildsForNewGridOrDeadDevice) {
  const Fixture f;
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  const api::SolveRequest diffusion =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kReference);
  const api::SolveResult single = api::Solver().solve(diffusion);
  expect_bit_exact(single, solver.solve(diffusion));
  expect_bit_exact(single, solver.solve(diffusion));
  EXPECT_EQ(partitions_built(solver), 1u);

  // A second grid shape: exactly one more build.
  const grid::GridDims other{16, 20, 5};
  auto state = std::make_shared<grid::WindState>(other);
  grid::init_random(*state, 77);
  api::SolverOptions poisson_options;
  poisson_options.backend = api::Backend::kFused;
  poisson_options.kernel_spec = api::PoissonOptions{.iterations = 4};
  const api::SolveRequest poisson = api::make_request(state, poisson_options);
  const api::SolveResult poisson_single = api::Solver().solve(poisson);
  expect_bit_exact(poisson_single, solver.solve(poisson));
  EXPECT_EQ(partitions_built(solver), 2u);
  EXPECT_EQ(solver.last_report().devices_used, 4u);

  // Device 2 dies mid-solve: the retry builds over the three survivors.
  fault::FaultInjector injector(kill_device_plan(2, 1));
  api::SolveResult degraded;
  {
    fault::ScopedArm arm(injector);
    degraded = solver.solve(poisson);
  }
  expect_bit_exact(poisson_single, degraded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(solver.dead_devices(), 1u);
  EXPECT_EQ(partitions_built(solver), 3u);
  EXPECT_EQ(solver.last_report().devices_used, 3u);

  // Later solves on the same grid reuse the survivors' partition.
  for (int repeat = 0; repeat < 2; ++repeat) {
    const api::SolveResult again = solver.solve(poisson);
    expect_bit_exact(poisson_single, again);
    EXPECT_TRUE(again.degraded);
  }
  EXPECT_EQ(partitions_built(solver), 3u);
  for (const std::size_t device : solver.last_report().shard_device) {
    EXPECT_NE(device, 2u);
  }
}

// ---------------------------------------------------------------------------
// One hand-off per solve: each worker scatters, pulls its own halos per
// sweep behind a barrier, and its last pass writes its extent of a
// recycled result buffer.

std::uint64_t handoffs(shard::ShardedSolver& solver) {
  return solver.metrics().counter("shard.handoffs");
}

TEST(ShardHandoff, OnePerSolveOnEveryDeviceCount) {
  const Fixture f;
  for (const api::Kernel kernel : api::kAllKernels) {
    const api::SolveRequest request =
        request_for(f, kernel, api::Backend::kFused);
    const api::SolveResult single = api::Solver().solve(request);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE(::testing::Message()
                   << api::to_string(kernel) << " on " << shards);
      shard::ShardOptions options;
      options.devices = shards;
      shard::ShardedSolver solver(options);
      for (std::uint64_t solves = 1; solves <= 3; ++solves) {
        expect_bit_exact(single, solver.solve(request));
        EXPECT_EQ(handoffs(solver), solves);
      }
    }
  }
}

TEST(ShardHandoff, EverySweepCountBitExactFaultFreeAndUnderAKill) {
  // Poisson's sweeps each open behind a barrier, so 1, 2 and 16 of them
  // cover a lone barrier, one guess swap and a long ping-pong. The kill
  // lands on the last sweep's pass of a middle device; with one device it
  // is the CPU rung.
  const Fixture f;
  for (const api::Kernel kernel : api::kAllKernels) {
    for (const std::size_t sweeps : {1, 2, 16}) {
      if (kernel != api::Kernel::kPoissonJacobi && sweeps != 1) {
        continue;
      }
      api::SolveRequest request =
          request_for(f, kernel, api::Backend::kFused);
      if (kernel == api::Kernel::kPoissonJacobi) {
        request.options.kernel_spec =
            api::PoissonOptions{.iterations = sweeps};
      }
      const api::SolveResult single = api::Solver().solve(request);
      for (const std::size_t shards : kShardCounts) {
        SCOPED_TRACE(::testing::Message() << api::to_string(kernel) << " x"
                                          << sweeps << " on " << shards);
        shard::ShardOptions options;
        options.devices = shards;
        shard::ShardedSolver healthy(options);
        const api::SolveResult clean = healthy.solve(request);
        expect_bit_exact(single, clean);
        EXPECT_FALSE(clean.degraded);
        EXPECT_EQ(healthy.last_report().exchanges, sweeps);

        fault::FaultInjector injector(
            kill_device_plan(shards / 2, 2 * sweeps - 1));
        shard::ShardedSolver doomed(options);
        api::SolveResult survived;
        {
          fault::ScopedArm arm(injector);
          survived = doomed.solve(request);
        }
        expect_bit_exact(single, survived);
        EXPECT_TRUE(survived.degraded);
        EXPECT_EQ(doomed.dead_devices(), 1u);
        EXPECT_EQ(injector.report().injected, 1u);
      }
    }
  }
}

TEST(ShardHandoff, NonFaultExceptionIsInternalAndKillsNoDevice) {
  // Only a fault::FaultError is a device dying. A std::runtime_error from
  // one shard's pass comes back as kInternal from both entry points: no
  // device dies, nothing re-partitions, and the next solve runs bit-exact
  // on every device.
  const Fixture f;
  std::atomic<bool> armed{true};
  shard::ShardOptions options;
  options.devices = 4;
  options.before_pass = [&armed](std::size_t device) {
    if (device == 2 && armed.load()) {
      throw std::runtime_error("device 2 pass: not a device fault");
    }
  };
  for (const api::Kernel kernel : api::kAllKernels) {
    SCOPED_TRACE(api::to_string(kernel));
    const api::SolveRequest request =
        request_for(f, kernel, api::Backend::kFused);
    const api::SolveResult single = api::Solver().solve(request);
    shard::ShardedSolver solver(options);
    serve::ServiceConfig config;
    config.shard = options;
    serve::SolveService service(config);

    armed = true;
    api::SolveResult direct;
    EXPECT_NO_THROW(direct = solver.solve(request));
    const api::SolveResult served = service.submit(request).wait();
    for (const api::SolveResult* failed :
         std::initializer_list<const api::SolveResult*>{&direct, &served}) {
      EXPECT_EQ(failed->error, api::SolveError::kInternal);
      EXPECT_NE(failed->message.find("not a device fault"), std::string::npos)
          << failed->message;
      EXPECT_EQ(failed->terms, nullptr);
    }
    for (shard::ShardedSolver* used :
         std::initializer_list<shard::ShardedSolver*>{
             &solver, service.sharded_solver()}) {
      EXPECT_EQ(used->dead_devices(), 0u);
      EXPECT_EQ(used->last_report().repartitions, 0u);
      EXPECT_EQ(partitions_built(*used), 1u);
      EXPECT_EQ(used->metrics().counter("shard.internal_error"), 1u);
    }

    armed = false;
    const api::SolveResult direct_again = solver.solve(request);
    const api::SolveResult served_again = service.submit(request).wait();
    for (const api::SolveResult* again :
         std::initializer_list<const api::SolveResult*>{&direct_again,
                                                        &served_again}) {
      expect_bit_exact(single, *again);
      EXPECT_FALSE(again->degraded);
      EXPECT_FALSE(again->cached);
    }
    for (shard::ShardedSolver* used :
         std::initializer_list<shard::ShardedSolver*>{
             &solver, service.sharded_solver()}) {
      EXPECT_EQ(used->last_report().devices_used, 4u);
      EXPECT_EQ(partitions_built(*used), 1u);
    }
  }
}

TEST(ShardResult, HeldResultsAreDistinctAndDroppedOnesRecycled) {
  const Fixture f;
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  const api::SolveRequest advection =
      request_for(f, api::Kernel::kAdvectPw, api::Backend::kFused);
  const api::SolveRequest diffusion =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);

  const auto recycled = [&] {
    return solver.metrics().counter("shard.results_recycled");
  };

  const api::SolveResult first = solver.solve(advection);
  api::SolveResult second = solver.solve(diffusion);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first.terms.get(), second.terms.get());
  EXPECT_EQ(recycled(), 0u);
  expect_bit_exact(api::Solver().solve(advection), first);
  expect_bit_exact(api::Solver().solve(diffusion), second);

  // A dropped result's buffer is the next solve's, rewritten in full.
  const advect::SourceTerms* const dropped = second.terms.get();
  second = {};
  api::SolveResult third = solver.solve(advection);
  EXPECT_EQ(recycled(), 1u);
  EXPECT_EQ(third.terms.get(), dropped);
  expect_bit_exact(first, third);

  // An attempt a device death cuts short hands its buffer to the retry.
  third = {};
  fault::FaultInjector injector(kill_device_plan(1, 0));
  api::SolveResult retried;
  {
    fault::ScopedArm arm(injector);
    retried = solver.solve(diffusion);
  }
  EXPECT_EQ(retried.attempts, 2u);
  EXPECT_EQ(recycled(), 3u);
  expect_bit_exact(api::Solver().solve(diffusion), retried);

  // The same free list behind api::Solver, whose failed attempt hands its
  // buffer to the next solve.
  obs::MetricsRegistry registry;
  api::SolveRequest single_advection = advection;
  api::SolveRequest single_diffusion = diffusion;
  single_advection.options.metrics = &registry;
  single_diffusion.options.metrics = &registry;
  const api::Solver single;
  const auto single_recycled = [&] {
    return registry.counter("solve.results_recycled");
  };

  const api::SolveResult held = single.solve(single_advection);
  api::SolveResult next = single.solve(single_diffusion);
  ASSERT_TRUE(held.ok() && next.ok());
  EXPECT_NE(held.terms.get(), next.terms.get());
  EXPECT_EQ(single_recycled(), 0u);

  const advect::SourceTerms* const single_dropped = next.terms.get();
  next = {};
  next = single.solve(single_advection);
  EXPECT_EQ(single_recycled(), 1u);
  EXPECT_EQ(next.terms.get(), single_dropped);
  expect_bit_exact(held, next);

  next = {};
  fault::FaultPlan pass_fault;
  fault::FaultRule rule;
  rule.site = "stencil.diffusion.pass";
  rule.kind = fault::FaultKind::kKernelTimeout;
  rule.count = 1;
  pass_fault.rules.push_back(rule);
  fault::FaultInjector pass_injector(pass_fault);
  {
    fault::ScopedArm arm(pass_injector);
    EXPECT_EQ(single.solve(single_diffusion).error,
              api::SolveError::kBackendFault);
  }
  next = single.solve(single_diffusion);
  EXPECT_EQ(single_recycled(), 3u);
  EXPECT_EQ(next.terms.get(), single_dropped);
  expect_bit_exact(retried, next);
}

/// Whether every interior value of `field` is +0.0.
bool interior_is_zero(const grid::FieldD& field) {
  return grid::compare_interior(field, grid::FieldD(field.dims())).bit_equal();
}

TEST(ShardResult, PoissonAfterAdvectionHasZeroSvSw) {
  // api::Solver and poisson_reference return Poisson's sv and sw as zeros;
  // a recycled buffer still holds the advection terms there.
  const Fixture f;
  const api::SolveRequest advection =
      request_for(f, api::Kernel::kAdvectPw, api::Backend::kFused);
  const api::SolveRequest poisson =
      request_for(f, api::Kernel::kPoissonJacobi, api::Backend::kFused);
  const api::SolveResult single = api::Solver().solve(poisson);
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    shard::ShardOptions options;
    options.devices = shards;
    shard::ShardedSolver solver(options);
    const advect::SourceTerms* buffer = nullptr;
    {
      const api::SolveResult advected = solver.solve(advection);
      ASSERT_TRUE(advected.ok());
      ASSERT_FALSE(interior_is_zero(advected.terms->sv));
      buffer = advected.terms.get();
    }
    const api::SolveResult solved = solver.solve(poisson);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(solver.metrics().counter("shard.results_recycled"), 1u);
    EXPECT_EQ(solved.terms.get(), buffer);
    EXPECT_TRUE(interior_is_zero(solved.terms->sv));
    EXPECT_TRUE(interior_is_zero(solved.terms->sw));
    expect_bit_exact(single, solved);
  }

  // api::Solver recycles the advection buffer the same way.
  obs::MetricsRegistry registry;
  const api::Solver solver;
  api::SolveRequest advected_request = advection;
  api::SolveRequest poisson_request = poisson;
  advected_request.options.metrics = &registry;
  poisson_request.options.metrics = &registry;
  const advect::SourceTerms* buffer = nullptr;
  {
    const api::SolveResult advected = solver.solve(advected_request);
    ASSERT_TRUE(advected.ok());
    ASSERT_FALSE(interior_is_zero(advected.terms->sv));
    buffer = advected.terms.get();
  }
  const api::SolveResult solved = solver.solve(poisson_request);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(registry.counter("solve.results_recycled"), 1u);
  EXPECT_EQ(solved.terms.get(), buffer);
  EXPECT_TRUE(interior_is_zero(solved.terms->sv));
  EXPECT_TRUE(interior_is_zero(solved.terms->sw));
  expect_bit_exact(single, solved);
}

TEST(ShardResult, OutlivesItsSolver) {
  // The buffer's way home is a weak reference: dropped after the solver is
  // gone, it is freed, never returned to a destroyed list.
  const Fixture f;
  const api::SolveRequest request =
      request_for(f, api::Kernel::kDiffusion, api::Backend::kFused);
  api::SolveResult kept;
  {
    shard::ShardOptions options;
    options.devices = 4;
    shard::ShardedSolver solver(options);
    kept = solver.solve(request);
  }
  expect_bit_exact(api::Solver().solve(request), kept);
  kept.terms.reset();
  EXPECT_EQ(kept.terms, nullptr);

  // So may an api::Solver's, including one solved on a submit copy.
  api::SolveResult direct;
  api::SolveResult submitted;
  {
    const api::Solver solver;
    direct = solver.solve(request);
    submitted = solver.submit(request).wait();
  }
  ASSERT_TRUE(direct.ok() && submitted.ok());
  EXPECT_NE(direct.terms.get(), submitted.terms.get());
  const api::SolveResult fresh = api::Solver().solve(request);
  expect_bit_exact(fresh, direct);
  expect_bit_exact(fresh, submitted);
  direct.terms.reset();
  submitted.terms.reset();
}

// ---------------------------------------------------------------------------
// Measurement plumbing.

TEST(ShardReport, MeasuresPerShardCpuAndExchange) {
  shard::ShardOptions options;
  options.devices = 4;
  shard::ShardedSolver solver(options);
  const Fixture f;
  const api::SolveResult result = solver.solve(
      request_for(f, api::Kernel::kPoissonJacobi, api::Backend::kFused));
  ASSERT_TRUE(result.ok());
  const shard::ShardRunReport& report = solver.last_report();
  EXPECT_EQ(report.sweeps, 5u);
  EXPECT_EQ(report.exchanges, 5u);
  EXPECT_EQ(report.shard_cpu_s.size(), 4u);
  EXPECT_GT(report.max_shard_cpu_s, 0.0);
  EXPECT_GE(report.sum_shard_cpu_s, report.max_shard_cpu_s);
  EXPECT_GT(report.halo_bytes, 0u);
  EXPECT_GT(report.exchange_model_s, 0.0);
  EXPECT_GE(report.critical_path_s, report.max_shard_cpu_s);
  // Per-sweep cross-device traffic: one field (the Jacobi guess) over the
  // cross-device subset of the plan, counted per exchange.
  EXPECT_EQ(report.halo_bytes % report.exchanges, 0u);
}

TEST(ShardReport, ThreadCpuClockIsMonotonic) {
  const double a = shard::thread_cpu_seconds();
  double spin = 0.0;
  for (int i = 0; i < 100000; ++i) {
    spin += static_cast<double>(i) * 1e-9;
  }
  const double b = shard::thread_cpu_seconds();
  EXPECT_GE(b + (spin > 1e30 ? 1.0 : 0.0), a);
}

// ---------------------------------------------------------------------------
// One request check: every solve entry point rejects each malformed request
// with the same typed error, before any device runs.

struct MalformedRequest {
  std::string name;
  api::SolveRequest request;
  api::SolveError expected;
};

std::vector<MalformedRequest> malformed_requests() {
  const grid::GridDims dims{8, 8, 8};
  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_random(*state, 17);
  const auto advection = [&](api::SolverOptions options = {}) {
    return api::make_request(state, coefficients_with_levels(dims, dims.nz),
                             std::move(options));
  };

  std::vector<MalformedRequest> cases;
  cases.push_back(
      {"no state", api::SolveRequest{}, api::SolveError::kEmptyGrid});
  cases.push_back({"advection without coefficients",
                   api::make_request(state, api::SolverOptions{}),
                   api::SolveError::kEmptyGrid});
  for (const std::size_t levels : {dims.nz - 1, dims.nz + 1}) {
    api::SolveRequest request = advection();
    request.coefficients = coefficients_with_levels(dims, levels);
    cases.push_back({"coefficients for " + std::to_string(levels) + " levels",
                     request, api::SolveError::kCoefficientMismatch});
  }
  api::SolveRequest halo2 = advection();
  halo2.state = std::make_shared<grid::WindState>(dims, 2);
  cases.push_back({"halo 2", halo2, api::SolveError::kHaloMismatch});

  api::SolverOptions options;
  options.backend = api::MultiKernelOptions{.kernels = 0};
  cases.push_back({"multi_kernel with 0 kernels", advection(options),
                   api::SolveError::kNoKernelInstances});
  options = {};
  options.kernel_spec = api::PoissonOptions{.iterations = 0};
  cases.push_back({"poisson with 0 iterations",
                   api::make_request(state, options),
                   api::SolveError::kNoIterations});
  options.kernel_spec = api::DiffusionOptions{.kappa = -1.0};
  cases.push_back({"diffusion with kappa < 0",
                   api::make_request(state, options),
                   api::SolveError::kInvalidDiffusivity});
  return cases;
}

TEST(SharedRequestCheck, EveryEntryPointRejectsAlike) {
  serve::SolveService service;
  shard::ShardOptions shard_options;
  shard_options.devices = 4;
  shard::ShardedSolver sharded(shard_options);
  serve::SolveService sharded_service(sharded_config(4));

  for (const MalformedRequest& c : malformed_requests()) {
    SCOPED_TRACE(c.name);
    const api::SolveFuture submitted = api::Solver().submit(c.request);
    const api::SolveFuture served = service.submit(c.request);
    ASSERT_TRUE(submitted.wait_for(std::chrono::seconds(10)));
    ASSERT_TRUE(served.wait_for(std::chrono::seconds(10)));
    EXPECT_EQ(api::Solver().solve(c.request).error, c.expected);
    EXPECT_EQ(submitted.result().error, c.expected);
    EXPECT_EQ(served.result().error, c.expected);
    EXPECT_EQ(sharded.solve(c.request).error, c.expected);
    EXPECT_EQ(sharded_service.submit(c.request).wait().error, c.expected);
  }
  EXPECT_EQ(sharded.dead_devices(), 0u);
  EXPECT_EQ(sharded_service.sharded_solver()->dead_devices(), 0u);
  EXPECT_EQ(service.report().computed, 0u);
  EXPECT_EQ(sharded_service.report().computed, 0u);
}

}  // namespace
