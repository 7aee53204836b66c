// Tests for the unified solver facade: every double-precision backend must
// produce bit-identical source terms on a fixed grid, invalid options must
// come back as typed errors (not asserts), and every solve must carry a
// metrics snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/flops.hpp"
#include "pw/api/request.hpp"
#include "pw/api/solver.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/serve/service.hpp"
#include "pw/stencil/spec.hpp"

namespace {

using namespace pw;

struct Fixture {
  grid::GridDims dims{16, 16, 16};
  grid::WindState state{dims};
  advect::PwCoefficients coefficients;

  Fixture()
      : coefficients(advect::PwCoefficients::from_geometry(
            grid::Geometry::uniform(dims, 100.0, 100.0, 50.0))) {
    grid::init_random(state, 99);
  }
};

api::SolveResult run(const Fixture& f, api::Backend backend,
                     obs::MetricsRegistry* metrics = nullptr,
                     api::Kernel kernel = api::Kernel::kAdvectPw) {
  api::SolverOptions options;
  if (backend == api::Backend::kHostOverlap) {
    api::HostOptions host;
    host.x_chunks = 4;
    options.backend = host;
  } else {
    options.backend = backend;  // per-backend default knobs
  }
  options.kernel_spec = kernel;
  options.kernel.chunk_y = 8;
  options.metrics = metrics;
  return api::Solver(options).solve(f.state, f.coefficients);
}

TEST(SolverApi, DoubleBackendsAreBitIdentical) {
  const Fixture f;
  const auto reference = run(f, api::Backend::kReference);
  ASSERT_TRUE(reference.ok()) << reference.message;
  ASSERT_TRUE(reference.terms != nullptr);

  for (const api::Backend backend :
       {api::Backend::kCpuBaseline, api::Backend::kFused,
        api::Backend::kMultiKernel, api::Backend::kHostOverlap}) {
    const auto result = run(f, backend);
    ASSERT_TRUE(result.ok())
        << api::to_string(backend) << ": " << result.message;
    ASSERT_TRUE(result.terms != nullptr) << api::to_string(backend);
    EXPECT_TRUE(grid::compare_interior(reference.terms->su, result.terms->su)
                    .bit_equal())
        << api::to_string(backend) << " su";
    EXPECT_TRUE(grid::compare_interior(reference.terms->sv, result.terms->sv)
                    .bit_equal())
        << api::to_string(backend) << " sv";
    EXPECT_TRUE(grid::compare_interior(reference.terms->sw, result.terms->sw)
                    .bit_equal())
        << api::to_string(backend) << " sw";
  }
}

TEST(SolverApi, VectorizedBackendAgreesToF32Tolerance) {
  const Fixture f;
  const auto reference = run(f, api::Backend::kReference);
  const auto result = run(f, api::Backend::kVectorized);
  ASSERT_TRUE(result.ok()) << result.message;
  const auto diff =
      grid::compare_interior(reference.terms->su, result.terms->su);
  EXPECT_LT(diff.max_abs, 1e-4);
}

TEST(SolverApi, EverySolveCarriesAMetricsSnapshot) {
  const Fixture f;
  for (const api::Backend backend :
       {api::Backend::kReference, api::Backend::kCpuBaseline,
        api::Backend::kFused, api::Backend::kMultiKernel,
        api::Backend::kHostOverlap, api::Backend::kVectorized}) {
    const auto result = run(f, backend);
    ASSERT_TRUE(result.ok()) << api::to_string(backend);
    EXPECT_FALSE(result.metrics.empty()) << api::to_string(backend);
    EXPECT_EQ(result.metrics.counters.at("solve.count"), 1u);
    EXPECT_GT(result.metrics.gauges.at("solve.cells"), 0.0);
  }
}

TEST(SolverApi, KernelBackendsReportKernelCounters) {
  const Fixture f;
  const auto result = run(f, api::Backend::kFused);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.metrics.counters.at("stencil.advect_pw.stencils_emitted"),
            0u);
  EXPECT_EQ(result.metrics.counters.at("stencil.advect_pw.passes"), 1u);
}

TEST(SolverApi, HostOverlapReportsChunkSpansAndBytes) {
  // Every kernel's host_overlap is the Fig. 6 driver: Poisson runs one host
  // round per sweep, moving its two input fields and one output field.
  const Fixture f;
  for (const api::Kernel kernel : api::kAllKernels) {
    SCOPED_TRACE(api::to_string(kernel));
    const stencil::StencilSpec& spec =
        *stencil::find_stencil(api::to_string(kernel));
    const std::uint64_t rounds =
        kernel == api::Kernel::kPoissonJacobi
            ? api::PoissonOptions{}.iterations
            : 1;
    const auto result = run(f, api::Backend::kHostOverlap, nullptr, kernel);
    ASSERT_TRUE(result.ok());
    const std::uint64_t written =
        result.metrics.counters.at("host.bytes_written");
    const std::uint64_t read = result.metrics.counters.at("host.bytes_read");
    EXPECT_GT(written, 0u);
    EXPECT_GT(read, 0u);
    EXPECT_EQ(written * spec.fields_out, read * spec.fields_in);
    EXPECT_EQ(result.metrics.counters.at("host.chunks"), 4u * rounds);
    EXPECT_GT(result.metrics.gauges.at("host.makespan_s"), 0.0);
    bool saw_modelled_chunk_span = false;
    for (const auto& span : result.metrics.spans) {
      if (span.modelled &&
          span.path.find("host/chunk/") != std::string::npos) {
        saw_modelled_chunk_span = true;
        EXPECT_GE(span.duration_s, 0.0);
      }
    }
    EXPECT_TRUE(saw_modelled_chunk_span);
  }
}

TEST(SolverApi, CallerSuppliedRegistryAccumulatesAcrossSolves) {
  const Fixture f;
  obs::MetricsRegistry registry;
  ASSERT_TRUE(run(f, api::Backend::kReference, &registry).ok());
  ASSERT_TRUE(run(f, api::Backend::kFused, &registry).ok());
  EXPECT_EQ(registry.counter("solve.count"), 2u);
}

TEST(SolverApi, EmptyGridIsATypedError) {
  api::SolverOptions options;
  const grid::GridDims empty{0, 16, 16};
  EXPECT_EQ(api::validate(options, empty), api::SolveError::kEmptyGrid);
  EXPECT_FALSE(api::describe(api::SolveError::kEmptyGrid).empty());
  // A WindState with a zero-sized dimension cannot even be constructed, so
  // the dims overload is the first line of defence for callers that size
  // grids from config before allocating.
  EXPECT_THROW(grid::WindState state(empty), std::exception);
}

TEST(SolverApi, UnchunkedOverlappedHostDriverIsBitExact) {
  // chunk_y == 0 only reaches the engine that runs each X-chunk, where it
  // means unchunked: the overlapped driver runs it like any other width.
  const Fixture f;
  for (const api::Kernel kernel : api::kAllKernels) {
    SCOPED_TRACE(api::to_string(kernel));
    api::SolverOptions options;
    api::HostOptions host;
    host.overlapped = true;
    host.x_chunks = 4;
    options.backend = host;
    options.kernel_spec = kernel;
    options.kernel.chunk_y = 0;  // unchunked
    EXPECT_EQ(api::validate(options), api::SolveError::kNone);

    const auto result = api::Solver(options).solve(f.state, f.coefficients);
    ASSERT_TRUE(result.ok()) << result.message;
    const auto reference = run(f, api::Backend::kReference, nullptr, kernel);
    ASSERT_TRUE(reference.ok()) << reference.message;
    EXPECT_TRUE(grid::compare_interior(reference.terms->su, result.terms->su)
                    .bit_equal());
    EXPECT_TRUE(grid::compare_interior(reference.terms->sv, result.terms->sv)
                    .bit_equal());
    EXPECT_TRUE(grid::compare_interior(reference.terms->sw, result.terms->sw)
                    .bit_equal());
  }
}

TEST(SolverApi, ZeroResourceBackendsAreRejected) {
  api::SolverOptions options;
  options.backend = api::MultiKernelOptions{.kernels = 0};
  EXPECT_EQ(api::validate(options), api::SolveError::kNoKernelInstances);

  options = {};
  options.backend = api::VectorizedOptions{.lanes = 0};
  EXPECT_EQ(api::validate(options), api::SolveError::kNoLanes);

  options = {};
  api::HostOptions host;
  host.x_chunks = 0;
  options.backend = host;
  EXPECT_EQ(api::validate(options), api::SolveError::kNoChunks);
}

TEST(SolverApi, HaloMismatchIsATypedError) {
  const grid::GridDims dims{8, 8, 8};
  grid::WindState wide(dims, 2);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 50.0));
  const auto result =
      api::Solver(api::SolverOptions{}).solve(wide, coefficients);
  EXPECT_EQ(result.error, api::SolveError::kHaloMismatch);
}

/// Coefficients for the fixture's grid with `levels` levels instead of nz.
advect::PwCoefficients coefficients_with_levels(const grid::GridDims& dims,
                                                std::size_t levels) {
  return advect::PwCoefficients::from_geometry(grid::Geometry::uniform(
      {dims.nx, dims.ny, levels}, 100.0, 100.0, 50.0));
}

TEST(SolverApi, CoefficientMismatchIsATypedError) {
  // nz - 1 and nz + 1 levels: the reference and fused backends used to
  // throw std::invalid_argument, cpu_baseline read past the vectors.
  const Fixture f;
  for (const std::size_t levels : {f.dims.nz - 1, f.dims.nz + 1}) {
    const advect::PwCoefficients coefficients =
        coefficients_with_levels(f.dims, levels);
    for (const api::Backend backend :
         {api::Backend::kReference, api::Backend::kFused,
          api::Backend::kCpuBaseline}) {
      api::SolveResult result;
      EXPECT_NO_THROW(result = api::Solver(api::SolverOptions{backend})
                                   .solve(f.state, coefficients));
      EXPECT_EQ(result.error, api::SolveError::kCoefficientMismatch)
          << api::to_string(backend);
    }
  }
}

TEST(SolverApi, SubmitWithCoefficientMismatchCompletesTyped) {
  // The async facade used to abort the process: its worker thread let the
  // solve's exception escape.
  const Fixture f;
  for (const std::size_t levels : {f.dims.nz - 1, f.dims.nz + 1}) {
    const api::SolveFuture future = api::Solver().submit(api::make_request(
        std::make_shared<const grid::WindState>(f.state),
        std::make_shared<const advect::PwCoefficients>(
            coefficients_with_levels(f.dims, levels))));
    ASSERT_TRUE(future.wait_for(std::chrono::seconds(10)));
    EXPECT_EQ(future.result().error, api::SolveError::kCoefficientMismatch);
  }
}

TEST(SolverApi, EngineExceptionIsATypedError) {
  // A host_overlap kernel time model is the caller's callback, run inside
  // the engine: what it throws must come back as kInternal from every entry
  // point, never escape a solve, abort a submit thread or strand a future.
  const Fixture f;
  for (const api::Kernel kernel : api::kAllKernels) {
    SCOPED_TRACE(api::to_string(kernel));
    api::HostOptions host;
    host.x_chunks = 2;
    host.kernel_time_model = [](const grid::GridDims&) -> double {
      throw std::runtime_error("kernel time model failed");
    };
    api::SolverOptions options;
    options.backend = host;
    options.kernel_spec = kernel;
    const api::SolveRequest request = api::make_request(
        std::make_shared<const grid::WindState>(f.state),
        std::make_shared<const advect::PwCoefficients>(f.coefficients),
        options);
    const auto expect_internal = [](const api::SolveResult& result) {
      EXPECT_EQ(result.error, api::SolveError::kInternal);
      EXPECT_NE(result.message.find("kernel time model failed"),
                std::string::npos)
          << result.message;
      EXPECT_EQ(result.terms, nullptr);
    };

    api::SolveResult direct;
    EXPECT_NO_THROW(direct = api::Solver(options).solve(request));
    expect_internal(direct);

    const api::SolveFuture submitted = api::Solver(options).submit(request);
    ASSERT_TRUE(submitted.wait_for(std::chrono::seconds(10)));
    expect_internal(submitted.result());

    serve::SolveService service;
    const api::SolveFuture served = service.submit(request);
    ASSERT_TRUE(served.wait_for(std::chrono::seconds(10)));
    expect_internal(served.result());
    EXPECT_EQ(served.result().attempts, 1u);
    EXPECT_FALSE(served.result().degraded);
  }
}

TEST(SolverApi, DescribeCoversAllErrors) {
  for (const api::SolveError error : api::kAllSolveErrors) {
    EXPECT_FALSE(api::describe(error).empty());
  }
}

// ---------------------------------------------------------------------------
// The kernel-generic surface: Kernel enum, KernelSpec tagged union, and the
// per-kernel validation dispatch.

TEST(SolverApi, KernelNamesRoundTripExhaustively) {
  for (const api::Kernel kernel : api::kAllKernels) {
    const char* name = api::to_string(kernel);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown");
    const auto parsed = api::parse_kernel(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(api::parse_kernel("laplacian_of_doom").has_value());
  EXPECT_FALSE(api::parse_kernel("").has_value());
}

TEST(SolverApi, KernelSpecTagTracksTheActiveAlternative) {
  // Default: advection with no knobs — the pre-KernelSpec behaviour.
  const api::KernelSpec defaulted;
  EXPECT_EQ(defaulted.kernel(), api::Kernel::kAdvectPw);
  EXPECT_NE(defaulted.get_if<api::AdvectPwOptions>(), nullptr);
  EXPECT_EQ(defaulted.get_if<api::PoissonOptions>(), nullptr);

  // Assigning a plain enum picks that kernel with default knobs.
  for (const api::Kernel kernel : api::kAllKernels) {
    const api::KernelSpec spec(kernel);
    EXPECT_EQ(spec.kernel(), kernel);
    EXPECT_TRUE(spec == kernel);
    EXPECT_STREQ(api::to_string(spec), api::to_string(kernel));
  }

  // Assigning an options struct picks the kernel it belongs to, knobs kept.
  api::PoissonOptions poisson;
  poisson.iterations = 32;
  const api::KernelSpec spec(poisson);
  EXPECT_EQ(spec.kernel(), api::Kernel::kPoissonJacobi);
  ASSERT_NE(spec.get_if<api::PoissonOptions>(), nullptr);
  EXPECT_EQ(spec.get_if<api::PoissonOptions>()->iterations, 32u);
  EXPECT_EQ(spec.get_if<api::DiffusionOptions>(), nullptr);
}

TEST(SolverApi, PerKernelValidationDispatchesOnTheActiveKernel) {
  api::SolverOptions options;

  options.kernel_spec = api::PoissonOptions{.iterations = 0};
  EXPECT_EQ(api::validate(options), api::SolveError::kNoIterations);

  api::DiffusionOptions diffusion;
  diffusion.kappa = -1.0;
  options.kernel_spec = diffusion;
  EXPECT_EQ(api::validate(options), api::SolveError::kInvalidDiffusivity);

  diffusion.kappa = std::nan("");
  options.kernel_spec = diffusion;
  EXPECT_EQ(api::validate(options), api::SolveError::kInvalidDiffusivity);

  diffusion = api::DiffusionOptions{};
  diffusion.dz = 0.0;
  options.kernel_spec = diffusion;
  EXPECT_EQ(api::validate(options), api::SolveError::kInvalidSpacing);

  api::PoissonOptions poisson;
  poisson.dx = -100.0;
  options.kernel_spec = poisson;
  EXPECT_EQ(api::validate(options), api::SolveError::kInvalidSpacing);

  // The advection kernel has no knobs, so none of the above can fire.
  options.kernel_spec = api::Kernel::kAdvectPw;
  EXPECT_EQ(api::validate(options), api::SolveError::kNone);

  // Typed errors surface from solve(), not just validate().
  const Fixture f;
  options.kernel_spec = api::PoissonOptions{.iterations = 0};
  const auto result = api::Solver(options).solve(f.state, f.coefficients);
  EXPECT_EQ(result.error, api::SolveError::kNoIterations);
}

TEST(SolverApi, TotalFlopsIsKernelAware) {
  const grid::GridDims dims{16, 16, 16};
  EXPECT_EQ(api::total_flops(api::KernelSpec(api::Kernel::kAdvectPw), dims),
            advect::total_flops(dims));
  EXPECT_EQ(api::total_flops(api::KernelSpec(api::Kernel::kDiffusion), dims),
            static_cast<std::uint64_t>(42.0 * dims.cells()));
  api::PoissonOptions poisson;
  poisson.iterations = 3;
  EXPECT_EQ(api::total_flops(api::KernelSpec(poisson), dims),
            static_cast<std::uint64_t>(10.0 * dims.cells()) * 3);
}

TEST(SolverApi, AdvectionRequestWithoutCoefficientsIsRejected) {
  const Fixture f;
  api::SolverOptions options;
  options.kernel_spec = api::Kernel::kAdvectPw;
  api::SolveRequest request;
  request.state = std::make_shared<const grid::WindState>(f.state);
  request.options = options;
  EXPECT_EQ(api::Solver(options).solve(request).error,
            api::SolveError::kEmptyGrid);

  // The same coefficient-free request is fine for a stencil kernel.
  options.kernel_spec = api::Kernel::kDiffusion;
  request.options = options;
  const auto result = api::Solver(options).solve(request);
  EXPECT_TRUE(result.ok()) << result.message;
}

}  // namespace
