// pw::stencil conformance battery: every declared kernel (diffusion,
// Jacobi/Poisson, the re-expressed advection), on every backend of the
// kernel-generic api::Solver, must agree bit-exactly with its scalar
// reference — fault-free, under injected stencil-pass faults (typed
// error, no unwinding) and when the answer arrives via serve-layer
// failover. Plus the registry derivations (lint graph, perf model, obs
// names, fault sites) and the cache-keying regression that a cached
// advection result is never served for a diffusion request carrying the
// identical payload. A seeded sweep over degenerate grids (any side 1..10),
// plus one full 32x64x32 grid, holds every registry kernel on every engine
// to its scalar reference, so an off-by-one at a chunk or slab edge of the
// strided views shows up here (and under the sanitizer builds that run the
// `stencil` label).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pw/fault/injector.hpp"
#include "pw/fpga/perf_model.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/kernel/pipeline_graph.hpp"
#include "pw/lint/checks.hpp"
#include "pw/decomp/decomposition.hpp"
#include "pw/serve/plan_cache.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"
#include "pw/shard/topology.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"
#include "pw/util/rng.hpp"

namespace {

using namespace pw;

struct Case {
  grid::GridDims dims;
  std::uint64_t seed;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {{16, 16, 16}, 1},
      {{24, 12, 8}, 2},
      {{9, 17, 5}, 3},
  };
  return kCases;
}

std::shared_ptr<grid::WindState> state_for(const Case& c) {
  auto state = std::make_shared<grid::WindState>(c.dims);
  grid::init_random(*state, c.seed);
  return state;
}

const std::vector<api::BackendSpec>& all_backends() {
  static const std::vector<api::BackendSpec> kBackends = [] {
    std::vector<api::BackendSpec> backends;
    backends.emplace_back(api::Backend::kReference);
    backends.emplace_back(api::Backend::kCpuBaseline);
    backends.emplace_back(api::Backend::kFused);
    backends.emplace_back(api::Backend::kMultiKernel);
    api::HostOptions host;
    host.x_chunks = 2;
    backends.emplace_back(host);
    // Stencil kernels keep double math under lane batching, so unlike
    // advection's f32 path the vectorized backend is bit-exact too.
    backends.emplace_back(api::Backend::kVectorized);
    return backends;
  }();
  return kBackends;
}

void expect_bit_equal(const advect::SourceTerms& reference,
                      const advect::SourceTerms& got, const std::string& label) {
  const auto du = grid::compare_interior(reference.su, got.su);
  const auto dv = grid::compare_interior(reference.sv, got.sv);
  const auto dw = grid::compare_interior(reference.sw, got.sw);
  EXPECT_TRUE(du.bit_equal())
      << label << ": su mismatches=" << du.mismatches
      << " max_abs=" << du.max_abs;
  EXPECT_TRUE(dv.bit_equal()) << label << ": sv mismatches=" << dv.mismatches;
  EXPECT_TRUE(dw.bit_equal()) << label << ": sw mismatches=" << dw.mismatches;
}

constexpr std::array<stencil::Engine, 4> kAllEngines = {
    stencil::Engine::kReference, stencil::Engine::kThreaded,
    stencil::Engine::kFused, stencil::Engine::kMultiInstance};

advect::PwCoefficients coefficients_for(const grid::GridDims& dims) {
  return advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 80.0, 40.0));
}

/// The per-kernel knobs of one registry solve: advection's coefficients,
/// diffusion's params and Poisson's sweep count.
struct KernelKnobs {
  advect::PwCoefficients coefficients;
  stencil::DiffusionParams diffusion;
  stencil::PoissonParams poisson;
};

/// Registry kernel `spec` by its scalar reference.
void solve_reference(const stencil::StencilSpec& spec,
                     const grid::WindState& state, const KernelKnobs& knobs,
                     advect::SourceTerms& out) {
  if (spec.name == "advect_pw") {
    advect::advect_reference(state, knobs.coefficients, out);
  } else if (spec.name == "diffusion") {
    stencil::diffusion_reference(state, knobs.diffusion, out);
  } else {
    stencil::poisson_reference(state, knobs.poisson, out);
  }
}

/// Registry kernel `spec` on the stencil machine under `config`.
stencil::PassStats solve_on_machine(const stencil::StencilSpec& spec,
                                    const grid::WindState& state,
                                    const KernelKnobs& knobs,
                                    advect::SourceTerms& out,
                                    const stencil::EngineConfig& config) {
  if (spec.name == "advect_pw") {
    return stencil::run_advect(state, knobs.coefficients, out, config);
  }
  if (spec.name == "diffusion") {
    return stencil::run_diffusion(state, knobs.diffusion, out, config);
  }
  return stencil::run_poisson(state, knobs.poisson, out, config);
}

// ---------------------------------------------------------------------------
// Differential conformance vs the scalar references, across every backend.

TEST(StencilDiffusion, AllBackendsBitExactVsScalarReference) {
  stencil::DiffusionParams params;
  params.kappa = 7.5;
  for (const Case& c : cases()) {
    const auto state = state_for(c);
    advect::SourceTerms reference(c.dims);
    stencil::diffusion_reference(*state, params, reference);

    for (const api::BackendSpec& backend : all_backends()) {
      api::SolverOptions options;
      options.backend = backend;
      options.kernel_spec = params;
      options.kernel.chunk_y = 4;
      const api::SolveResult result =
          api::Solver(options).solve(api::make_request(state, options));
      ASSERT_TRUE(result.ok()) << result.message;
      expect_bit_equal(reference, *result.terms,
                       std::string("diffusion/") + api::to_string(backend));
    }
  }
}

TEST(StencilPoisson, AllBackendsBitExactVsScalarReference) {
  stencil::PoissonParams params;
  params.iterations = 5;
  for (const Case& c : cases()) {
    const auto state = state_for(c);
    advect::SourceTerms reference(c.dims);
    stencil::poisson_reference(*state, params, reference);

    for (const api::BackendSpec& backend : all_backends()) {
      api::SolverOptions options;
      options.backend = backend;
      options.kernel_spec = params;
      options.kernel.chunk_y = 4;
      const api::SolveResult result =
          api::Solver(options).solve(api::make_request(state, options));
      ASSERT_TRUE(result.ok()) << result.message;
      expect_bit_equal(reference, *result.terms,
                       std::string("poisson/") + api::to_string(backend));
    }
  }
}

TEST(StencilMachine, ReExpressedAdvectionMatchesFusedKernelBitExactly) {
  // kernel::run_kernel_fused is a forwarder onto the machine's streaming
  // pass; it must stay bit-identical to run_advect on the fused engine.
  for (const Case& c : cases()) {
    const auto state = state_for(c);
    const advect::PwCoefficients coefficients =
        advect::PwCoefficients::from_geometry(
            grid::Geometry::uniform(c.dims, 100.0, 80.0, 40.0));

    advect::SourceTerms fused(c.dims);
    kernel::KernelConfig config;
    config.chunk_y = 4;
    kernel::run_kernel_fused(*state, coefficients, fused, config);

    advect::SourceTerms machine(c.dims);
    stencil::EngineConfig engine;
    engine.engine = stencil::Engine::kFused;
    engine.chunk_y = 4;
    stencil::run_advect(*state, coefficients, machine, engine);
    expect_bit_equal(fused, machine, "stencil-advect vs fused");
  }
}

TEST(StencilMachine, EveryEngineProducesIdenticalDiffusion) {
  // Engine-level differential below the api layer: all six execution
  // strategies of the machine on one op.
  const Case c = cases().front();
  const auto state = state_for(c);
  stencil::DiffusionParams params;
  advect::SourceTerms reference(c.dims);
  stencil::diffusion_reference(*state, params, reference);
  for (const stencil::Engine engine : kAllEngines) {
    stencil::EngineConfig config;
    config.engine = engine;
    config.chunk_y = 4;
    advect::SourceTerms out(c.dims);
    const stencil::PassStats stats =
        stencil::run_diffusion(*state, params, out, config);
    EXPECT_EQ(stats.cells, c.dims.cells());
    expect_bit_equal(reference, out, "engine");
  }
}

TEST(StencilMachine, FusedPassStreamsExactlyTheSpecFields) {
  // Each streaming engine feeds one shift buffer per field the op reads:
  // the guess and right-hand side for Poisson, all three wind fields for
  // diffusion and advection. values_streamed stays per field.
  const Case c = cases().front();
  const auto state = state_for(c);
  KernelKnobs knobs{coefficients_for(c.dims), {}, {}};
  knobs.poisson.iterations = 1;
  stencil::EngineConfig config;
  config.engine = stencil::Engine::kFused;
  config.chunk_y = 4;
  const std::uint64_t per_field =
      kernel::ChunkPlan(c.dims, config.chunk_y).streamed_values_per_field();
  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    const std::uint64_t fields = spec.name == "poisson_jacobi" ? 2u : 3u;
    EXPECT_EQ(spec.fields_in, fields) << spec.name;
    advect::SourceTerms out(c.dims);
    const stencil::PassStats stats =
        solve_on_machine(spec, *state, knobs, out, config);
    EXPECT_EQ(stats.values_streamed, per_field) << spec.name;
    EXPECT_EQ(stats.field_values_streamed, fields * per_field) << spec.name;
    EXPECT_EQ(stats.stencils_emitted, c.dims.cells()) << spec.name;
  }
}

TEST(StencilSpecDerivation, OpArityIsTheSpecArity) {
  // The spec's field counts drive the lint graph, the perf entry and the
  // halo exchange; the op's drive what the engines stream and store.
  EXPECT_EQ(stencil::AdvectOp::kFieldsIn, stencil::advect_spec().fields_in);
  EXPECT_EQ(stencil::AdvectOp::kFieldsOut, stencil::advect_spec().fields_out);
  EXPECT_EQ(stencil::DiffusionOp::kFieldsIn,
            stencil::diffusion_spec().fields_in);
  EXPECT_EQ(stencil::DiffusionOp::kFieldsOut,
            stencil::diffusion_spec().fields_out);
  EXPECT_EQ(stencil::PoissonOp::kFieldsIn, stencil::poisson_spec().fields_in);
  EXPECT_EQ(stencil::PoissonOp::kFieldsOut,
            stencil::poisson_spec().fields_out);

  // A pass whose op disagrees with its spec is refused before it runs.
  const Case c = cases().front();
  const auto state = state_for(c);
  advect::SourceTerms out(c.dims);
  EXPECT_THROW(stencil::run_pass(stencil::poisson_spec(), *state, out,
                                 stencil::DiffusionOp(stencil::DiffusionParams{}),
                                 stencil::EngineConfig{}),
               std::invalid_argument);
}

TEST(StencilFuzz, DegenerateShapesBitExactOnEveryEngine) {
  // Seeded draws of tiny and degenerate grids (any side 1..10), Y-chunk
  // widths 0..ny+3 and instance / host X-chunk counts up to nx+2: every
  // registry kernel on every engine, and through api::Solver's host driver
  // with and without overlap, must bit-match its scalar reference.
  struct Input {
    grid::GridDims dims;
    std::uint64_t seed;
    stencil::EngineConfig config;
    api::HostOptions host;
    KernelKnobs knobs;
  };
  std::vector<Input> inputs;
  util::Rng rng(16);
  for (int draw = 0; draw < 32; ++draw) {
    Input in;
    in.dims = {1 + rng.next_below(10), 1 + rng.next_below(10),
               1 + rng.next_below(10)};
    in.seed = rng.next_u64();
    in.config.chunk_y = rng.next_below(in.dims.ny + 4);
    in.config.instances = 1 + rng.next_below(in.dims.nx + 2);
    in.host.x_chunks = 1 + rng.next_below(in.dims.nx + 2);
    in.knobs.coefficients = coefficients_for(in.dims);
    in.knobs.poisson.iterations = 1 + rng.next_below(3);
    inputs.push_back(std::move(in));
  }
  // One full-sized input: 32x64x32 in one full 64-wide Y-chunk, diffusion
  // kappa 12.5 and 8 Poisson sweeps, the configuration the stencil bench's
  // bit-exact gauge used to check on the fused engine.
  {
    Input in;
    in.dims = {32, 64, 32};
    in.seed = 2026;
    in.config.chunk_y = 64;
    in.knobs.coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(in.dims, 100.0, 100.0, 25.0));
    in.knobs.diffusion.kappa = 12.5;
    in.knobs.poisson.iterations = 8;
    inputs.push_back(std::move(in));
  }

  for (std::size_t draw = 0; draw < inputs.size(); ++draw) {
    Input& in = inputs[draw];
    const grid::GridDims& dims = in.dims;
    SCOPED_TRACE(::testing::Message()
                 << "draw=" << draw << " dims=" << dims.nx << "x" << dims.ny
                 << "x" << dims.nz << " chunk_y=" << in.config.chunk_y
                 << " instances=" << in.config.instances
                 << " x_chunks=" << in.host.x_chunks
                 << " iterations=" << in.knobs.poisson.iterations
                 << " seed=" << in.seed);

    grid::WindState state(dims);
    grid::init_random(state, in.seed);
    for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
      advect::SourceTerms reference(dims);
      solve_reference(spec, state, in.knobs, reference);
      for (const stencil::Engine engine : kAllEngines) {
        in.config.engine = engine;
        advect::SourceTerms out(dims);
        const stencil::PassStats stats =
            solve_on_machine(spec, state, in.knobs, out, in.config);
        const std::uint64_t sweeps =
            spec.name == "poisson_jacobi" ? in.knobs.poisson.iterations : 1;
        EXPECT_EQ(stats.cells, sweeps * dims.cells())
            << spec.name << " engine " << static_cast<int>(engine);
        expect_bit_equal(reference, out,
                         spec.name + " engine " +
                             std::to_string(static_cast<int>(engine)));
      }
      for (const bool overlapped : {false, true}) {
        in.host.overlapped = overlapped;
        api::SolverOptions options;
        options.backend = in.host;
        options.kernel.chunk_y = in.config.chunk_y;
        if (spec.name == "poisson_jacobi") {
          options.kernel_spec = in.knobs.poisson;
        } else if (spec.name == "diffusion") {
          options.kernel_spec = in.knobs.diffusion;
        } else {
          options.kernel_spec = *api::parse_kernel(spec.name);
        }
        const api::SolveResult result =
            api::Solver(options).solve(api::borrow_request(
                state, in.knobs.coefficients, options));
        const std::string label =
            spec.name + (overlapped ? " host overlapped" : " host sequential");
        ASSERT_TRUE(result.ok()) << label << ": " << result.message;
        expect_bit_equal(reference, *result.terms, label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry derivations: one StencilSpec declaration yields the lint graph,
// perf-model entry, obs names and fault site.

TEST(StencilRegistry, DeclaredKernelsLandInThePipelineRegistry) {
  stencil::ensure_registered();
  stencil::ensure_registered();  // idempotent: no duplicates
  std::size_t stencil_entries = 0;
  for (const kernel::RegisteredPipeline& entry :
       kernel::registered_pipelines()) {
    if (entry.name.rfind("stencil/", 0) == 0) {
      ++stencil_entries;
      const lint::LintReport report = lint::run_checks(entry.build());
      EXPECT_TRUE(report.passed()) << entry.name << "\n" << report.summary();
    }
  }
  EXPECT_EQ(stencil_entries, stencil::registered_stencils().size());
}

TEST(StencilRegistry, DerivedPipelineGraphsLintCleanAcrossGeometries) {
  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    for (const Case& c : cases()) {
      kernel::PipelineGraphSpec graph_spec;
      graph_spec.dims = c.dims;
      graph_spec.chunk_y = 4;
      graph_spec.fifo_depth = 16;
      const lint::LintReport report =
          lint::run_checks(describe_stencil_pipeline(spec, graph_spec));
      EXPECT_TRUE(report.passed())
          << spec.name << " @ " << c.dims.nx << "x" << c.dims.ny << "x"
          << c.dims.nz << "\n"
          << report.summary();
    }
  }
}

TEST(StencilRegistry, PerfModelEntryUsesDeclaredFlopsPerCell) {
  const grid::GridDims dims{16, 64, 16};
  const stencil::StencilSpec& diffusion = stencil::diffusion_spec();
  const fpga::KernelOnlyInput input = stencil::perf_input(diffusion, dims);
  EXPECT_DOUBLE_EQ(input.flops_per_cell, stencil::kDiffusionFlopsPerCell);
  const fpga::KernelOnlyResult result = fpga::model_kernel_only(input);
  EXPECT_GT(result.gflops, 0.0);
  EXPECT_GT(result.theoretical_gflops, 0.0);
  // The declared per-cell FLOPs drive the model: total work is exactly
  // flops_per_cell * cells, so achieved == fraction * theoretical.
  EXPECT_LE(result.gflops, result.theoretical_gflops * 1.0000001);

  // Iterative kernels scale with sweeps: the streamed beat count is linear
  // in sweeps, so with the fixed per-run launch overhead zeroed the modelled
  // runtime is too.
  const stencil::StencilSpec& poisson = stencil::poisson_spec();
  fpga::KernelOnlyInput one = stencil::perf_input(poisson, dims);
  one.sweeps = 1;
  one.launch_overhead_s = 0.0;
  fpga::KernelOnlyInput eight = stencil::perf_input(poisson, dims);
  eight.sweeps = 8;
  eight.launch_overhead_s = 0.0;
  EXPECT_NEAR(fpga::model_kernel_only(eight).seconds,
              8.0 * fpga::model_kernel_only(one).seconds,
              1e-9 + 0.01 * fpga::model_kernel_only(eight).seconds);
}

TEST(StencilRegistry, ObsAndFaultNamesDeriveFromTheSpec) {
  EXPECT_EQ(stencil::obs_prefix(stencil::diffusion_spec()),
            "stencil.diffusion");
  EXPECT_EQ(stencil::fault_site(stencil::poisson_spec()),
            "stencil.poisson_jacobi.pass");
  EXPECT_EQ(std::string(stencil::advect_spec().name), "advect_pw");

  // Running a pass lands the derived counters in the registry.
  const Case c = cases().front();
  const auto state = state_for(c);
  obs::MetricsRegistry registry;
  stencil::EngineConfig config;
  config.engine = stencil::Engine::kFused;
  config.chunk_y = 4;
  config.metrics = &registry;
  advect::SourceTerms out(c.dims);
  stencil::run_diffusion(*state, stencil::DiffusionParams{}, out, config);
  const obs::RegistrySnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("stencil.diffusion.passes"), 1u);
  EXPECT_EQ(snapshot.counters.at("stencil.diffusion.cells"), c.dims.cells());
  EXPECT_GT(snapshot.counters.at("stencil.diffusion.values_streamed"), 0u);
}

TEST(StencilFault, InjectedPassFaultSurfacesAsTypedBackendFault) {
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = stencil::fault_site(stencil::diffusion_spec());
  rule.kind = fault::FaultKind::kTransferFailure;
  plan.rules.push_back(rule);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  const Case c = cases().front();
  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel_spec = api::Kernel::kDiffusion;
  const api::SolveResult result =
      api::Solver(options).solve(api::make_request(state_for(c), options));
  EXPECT_EQ(result.error, api::SolveError::kBackendFault);
  EXPECT_FALSE(result.terms);
}

TEST(StencilFault, DegradedFailoverDiffusionStaysBitExact) {
  // Break the fused backend permanently; the serve layer fails the
  // diffusion request over to the CPU baseline. Degradation must change
  // the execution strategy only, never the kernel or the answer.
  fault::FaultPlan plan;
  plan.seed = 4;
  fault::FaultRule rule;
  rule.site = "serve.solve.fused";
  rule.kind = fault::FaultKind::kTransferFailure;
  plan.rules.push_back(rule);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config;
  config.result_cache = false;
  config.retry.max_attempts = 1;
  config.retry.initial_backoff = std::chrono::microseconds(10);
  serve::SolveService service(config);
  stencil::DiffusionParams params;
  params.kappa = 3.0;
  for (const Case& c : cases()) {
    const auto state = state_for(c);
    advect::SourceTerms reference(c.dims);
    stencil::diffusion_reference(*state, params, reference);

    api::SolverOptions options;
    options.backend = api::Backend::kFused;
    options.kernel_spec = params;
    options.kernel.chunk_y = 4;
    const api::SolveResult degraded =
        service.submit(api::make_request(state, options)).wait();
    ASSERT_TRUE(degraded.ok()) << degraded.message;
    ASSERT_TRUE(degraded.degraded);
    expect_bit_equal(reference, *degraded.terms, "diffusion failover");
  }
}

// ---------------------------------------------------------------------------
// Cache keying: kernel identity must separate plans and fingerprints.

TEST(StencilCacheKeying, KernelIdentitySeparatesPlanKeysAndFingerprints) {
  const Case c = cases().front();
  const auto state = state_for(c);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(c.dims, 100.0, 100.0, 50.0)));

  api::SolverOptions advect_options;
  advect_options.backend = api::Backend::kFused;
  advect_options.kernel_spec = api::Kernel::kAdvectPw;
  api::SolverOptions diffusion_options = advect_options;
  diffusion_options.kernel_spec = api::Kernel::kDiffusion;

  EXPECT_NE(serve::plan_key(c.dims, advect_options),
            serve::plan_key(c.dims, diffusion_options));

  // Identical dims + identical payload bytes, different kernels: the
  // fingerprints must differ (kernel identity is hashed via the plan key).
  api::SolveRequest advect_request =
      api::make_request(state, coefficients, advect_options);
  api::SolveRequest diffusion_request =
      api::make_request(state, diffusion_options);
  EXPECT_NE(serve::request_fingerprint(advect_request),
            serve::request_fingerprint(diffusion_request));

  // Kernel knobs that change the answer also change the key: 4 vs 8
  // Jacobi iterations converge differently.
  api::PoissonOptions four;
  four.iterations = 4;
  api::PoissonOptions eight;
  eight.iterations = 8;
  api::SolverOptions poisson4 = advect_options;
  poisson4.kernel_spec = four;
  api::SolverOptions poisson8 = advect_options;
  poisson8.kernel_spec = eight;
  EXPECT_NE(serve::plan_key(c.dims, poisson4),
            serve::plan_key(c.dims, poisson8));
}

TEST(StencilCacheKeying, AdvectResultNeverServedForDiffusionRequest) {
  // Regression for the cross-kernel cache-poisoning hazard: same dims,
  // same payload, result cache on — the diffusion request must compute,
  // not hit the advection entry, and both answers must be their own
  // kernel's.
  const Case c = cases().front();
  const auto state = state_for(c);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(c.dims, 100.0, 100.0, 50.0)));

  advect::SourceTerms advect_reference_terms(c.dims);
  advect::advect_reference(*state, *coefficients, advect_reference_terms);
  advect::SourceTerms diffusion_reference_terms(c.dims);
  stencil::diffusion_reference(*state, stencil::DiffusionParams{},
                               diffusion_reference_terms);

  serve::ServiceConfig config;
  config.result_cache = true;
  serve::SolveService service(config);

  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 4;
  options.kernel_spec = api::Kernel::kAdvectPw;
  const api::SolveResult advected =
      service.submit(api::make_request(state, coefficients, options)).wait();
  ASSERT_TRUE(advected.ok()) << advected.message;

  options.kernel_spec = api::Kernel::kDiffusion;
  const api::SolveResult diffused =
      service.submit(api::make_request(state, options)).wait();
  ASSERT_TRUE(diffused.ok()) << diffused.message;
  EXPECT_FALSE(diffused.cached)
      << "diffusion request hit the advection cache entry";

  expect_bit_equal(advect_reference_terms, *advected.terms, "advect");
  expect_bit_equal(diffusion_reference_terms, *diffused.terms, "diffusion");

  // And the same-kernel repeat DOES hit.
  const api::SolveResult repeat =
      service.submit(api::make_request(state, options)).wait();
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.cached);

  service.shutdown();
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.computed, 2u);  // one advect + one diffusion, no more
  EXPECT_EQ(report.result_cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Mixed-kernel traffic through one service.

TEST(StencilServing, MixedKernelTraceRepliesWithPerKernelCounters) {
  serve::TraceSpec spec;
  spec.requests = 36;
  spec.shapes = {{12, 12, 8}};
  spec.backends = {api::Backend::kReference, api::Backend::kFused,
                   api::Backend::kCpuBaseline};
  spec.kernels = {api::Kernel::kAdvectPw, api::Kernel::kDiffusion,
                  api::Kernel::kPoissonJacobi};
  spec.chunk_y = 4;
  const std::vector<api::SolveRequest> trace = serve::make_trace(spec);
  ASSERT_EQ(trace.size(), spec.requests);

  serve::SolveService service;
  std::vector<api::SolveFuture> futures = service.submit_all(trace);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const api::SolveResult& result = futures[i].wait();
    EXPECT_TRUE(result.ok()) << trace[i].tag << ": " << result.message;
  }
  service.shutdown();

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.completed, spec.requests);
  std::uint64_t admitted_total = 0;
  for (const api::Kernel kernel : spec.kernels) {
    const std::string name =
        std::string("serve.kernel.") + api::to_string(kernel) + ".admitted";
    const auto it = report.metrics.counters.find(name);
    ASSERT_NE(it, report.metrics.counters.end()) << name;
    EXPECT_GT(it->second, 0u) << name;
    admitted_total += it->second;
  }
  EXPECT_EQ(admitted_total, spec.requests);
}

// ---------------------------------------------------------------------------
// Spec-derived halo arity (regression for the scale-out bench's old
// hardcoded 3-field assumption).

TEST(StencilSpecDerivation, HaloExchangeFieldArityComesFromSpec) {
  // A halo exchange must move exactly the fields a sweep writes — the
  // three wind fields for advection and diffusion, only the Jacobi guess
  // for Poisson. bench/future_scaleout once charged every kernel 3 fields;
  // pin the derivation so that bug cannot return.
  stencil::ensure_registered();
  const auto arity = [](const char* name) {
    const stencil::StencilSpec* spec = stencil::find_stencil(name);
    EXPECT_NE(spec, nullptr) << name;
    return spec ? shard::halo_exchange_fields(*spec) : 0;
  };
  EXPECT_EQ(arity("advect_pw"), 3u);
  EXPECT_EQ(arity("diffusion"), 3u);
  EXPECT_EQ(arity("poisson_jacobi"), 1u);
  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    EXPECT_EQ(shard::halo_exchange_fields(spec), spec.fields_out) << spec.name;
  }
}

TEST(StencilSpecDerivation, HaloTrafficScalesWithSpecFieldsNotThree) {
  const auto d = decomp::Decomposition::auto_grid({24, 24, 8}, 4);
  const std::size_t per_field = d.halo_exchange_bytes_per_field();
  ASSERT_GT(per_field, 0u);
  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    EXPECT_EQ(shard::halo_traffic_bytes_per_sweep(d, spec),
              per_field * spec.fields_out)
        << spec.name;
  }
  const stencil::StencilSpec* poisson = stencil::find_stencil("poisson_jacobi");
  ASSERT_NE(poisson, nullptr);
  // The single-field Poisson exchange is the case the hardcoded 3 got wrong.
  EXPECT_EQ(shard::halo_traffic_bytes_per_sweep(d, *poisson), per_field);
  EXPECT_NE(shard::halo_traffic_bytes_per_sweep(d, *poisson), 3 * per_field);
}

}  // namespace
