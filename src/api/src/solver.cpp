#include "pw/api/solver.hpp"

#include <chrono>
#include <cmath>

#include "pw/advect/cpu_baseline.hpp"
#include "pw/advect/flops.hpp"
#include "pw/api/request.hpp"
#include "pw/fault/injector.hpp"
#include "pw/kernel/pipeline_graph.hpp"
#include "pw/kernel/vectorized.hpp"
#include "pw/lint/checks.hpp"
#include "pw/obs/span.hpp"
#include "pw/ocl/host_driver.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::api {

const char* to_string(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAdvectPw:
      return "advect_pw";
    case Kernel::kDiffusion:
      return "diffusion";
    case Kernel::kPoissonJacobi:
      return "poisson_jacobi";
  }
  return "unknown";
}

std::optional<Kernel> parse_kernel(std::string_view name) {
  for (const Kernel kernel : kAllKernels) {
    if (name == to_string(kernel)) {
      return kernel;
    }
  }
  return std::nullopt;
}

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kReference:
      return "reference";
    case Backend::kCpuBaseline:
      return "cpu_baseline";
    case Backend::kFused:
      return "fused";
    case Backend::kMultiKernel:
      return "multi_kernel";
    case Backend::kHostOverlap:
      return "host_overlap";
    case Backend::kVectorized:
      return "vectorized";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  for (const Backend backend : kAllBackends) {
    if (name == to_string(backend)) {
      return backend;
    }
  }
  return std::nullopt;
}

std::string describe(SolveError error) {
  switch (error) {
    case SolveError::kNone:
      return "ok";
    case SolveError::kEmptyGrid:
      return "grid has a zero-sized dimension";
    case SolveError::kHaloMismatch:
      return "wind fields must carry a halo of exactly 1";
    case SolveError::kNoKernelInstances:
      return "multi-kernel backend needs at least one kernel instance";
    case SolveError::kNoLanes:
      return "vectorized backend needs at least one lane";
    case SolveError::kNoChunks:
      return "overlapped host driver needs at least one X-chunk";
    case SolveError::kRejectedByLint:
      return "rejected at admission: the static pw::lint battery found "
             "errors in the pipeline this request would construct";
    case SolveError::kQueueFull:
      return "rejected by backpressure: the service admission queue is full";
    case SolveError::kDeadlineExceeded:
      return "request deadline passed before a worker could run it";
    case SolveError::kCancelled:
      return "cancelled via SolveFuture::cancel before execution began";
    case SolveError::kServiceStopped:
      return "the solve service is stopped and no longer accepts work";
    case SolveError::kBackendFault:
      return "a transfer, kernel or allocation fault surfaced mid-solve";
    case SolveError::kNoIterations:
      return "Jacobi/Poisson kernel needs at least one iteration";
    case SolveError::kInvalidDiffusivity:
      return "diffusion kappa must be finite and non-negative";
    case SolveError::kInvalidSpacing:
      return "kernel grid spacings must be finite and positive";
    case SolveError::kCoefficientMismatch:
      return "advection coefficients tzc1/tzc2/tzd1/tzd2 must each carry "
             "exactly nz levels";
    case SolveError::kInternal:
      return "an engine failed with an error that is not a device fault";
  }
  return "unknown error";
}

BackendSpec::BackendSpec(Backend backend) {
  switch (backend) {
    case Backend::kReference:
      spec_ = ReferenceOptions{};
      break;
    case Backend::kCpuBaseline:
      spec_ = CpuBaselineOptions{};
      break;
    case Backend::kFused:
      spec_ = FusedOptions{};
      break;
    case Backend::kMultiKernel:
      spec_ = MultiKernelOptions{};
      break;
    case Backend::kHostOverlap:
      spec_ = HostOptions{};
      break;
    case Backend::kVectorized:
      spec_ = VectorizedOptions{};
      break;
  }
}

KernelSpec::KernelSpec(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAdvectPw:
      spec_ = AdvectPwOptions{};
      break;
    case Kernel::kDiffusion:
      spec_ = DiffusionOptions{};
      break;
    case Kernel::kPoissonJacobi:
      spec_ = PoissonOptions{};
      break;
  }
}

std::uint64_t total_flops(const KernelSpec& spec, const grid::GridDims& dims) {
  switch (spec.kernel()) {
    case Kernel::kAdvectPw:
      // The exact 63/55 column-top schedule, not a flat per-cell rate.
      return advect::total_flops(dims);
    case Kernel::kDiffusion:
      return stencil::total_flops(stencil::diffusion_spec(), dims);
    case Kernel::kPoissonJacobi: {
      const auto* poisson = spec.get_if<PoissonOptions>();
      return stencil::total_flops(stencil::poisson_spec(), dims,
                                  poisson->iterations);
    }
  }
  return 0;
}

SolveResult error_result(SolveError error, Backend backend,
                         std::string message) {
  SolveResult result;
  result.error = error;
  result.backend = backend;
  result.message = message.empty() ? describe(error) : std::move(message);
  return result;
}

SolveError validate(const SolverOptions& options) {
  if (const auto* multi = options.backend.get_if<MultiKernelOptions>()) {
    if (multi->kernels == 0) {
      return SolveError::kNoKernelInstances;
    }
  }
  if (const auto* vec = options.backend.get_if<VectorizedOptions>()) {
    if (vec->lanes == 0) {
      return SolveError::kNoLanes;
    }
  }
  if (const auto* host = options.backend.get_if<HostOptions>()) {
    if (host->overlapped && host->x_chunks == 0) {
      return SolveError::kNoChunks;
    }
  }
  // Per-kernel knob validation: only the active kernel's rules apply (the
  // tagged union makes cross-kernel knobs unrepresentable).
  const auto spacing_ok = [](double dx, double dy, double dz) {
    return std::isfinite(dx) && dx > 0.0 && std::isfinite(dy) && dy > 0.0 &&
           std::isfinite(dz) && dz > 0.0;
  };
  if (const auto* diff = options.kernel_spec.get_if<DiffusionOptions>()) {
    if (!std::isfinite(diff->kappa) || diff->kappa < 0.0) {
      return SolveError::kInvalidDiffusivity;
    }
    if (!spacing_ok(diff->dx, diff->dy, diff->dz)) {
      return SolveError::kInvalidSpacing;
    }
  }
  if (const auto* poisson = options.kernel_spec.get_if<PoissonOptions>()) {
    if (poisson->iterations == 0) {
      return SolveError::kNoIterations;
    }
    if (!spacing_ok(poisson->dx, poisson->dy, poisson->dz)) {
      return SolveError::kInvalidSpacing;
    }
  }
  return SolveError::kNone;
}

SolveError validate(const SolverOptions& options,
                    const grid::GridDims& dims) {
  if (dims.nx == 0 || dims.ny == 0 || dims.nz == 0) {
    return SolveError::kEmptyGrid;
  }
  return validate(options);
}

lint::LintReport Solver::validate(const grid::GridDims& dims) const {
  lint::LintReport report;

  // Option-level validation first: a typed SolveError becomes a lint
  // diagnostic so one report carries both layers.
  const SolveError error = api::validate(options_, dims);
  if (error != SolveError::kNone) {
    lint::Diagnostic d;
    d.severity = lint::Severity::kError;
    d.check = "options.invalid";
    d.message = describe(error);
    d.fix_hint = "fix SolverOptions before constructing the pipeline";
    report.diagnostics.push_back(std::move(d));
    return report;
  }

  // Backends that construct a stream pipeline get the full graph battery;
  // the serial/threaded-loop backends have no streams to verify.
  kernel::PipelineGraphSpec spec;
  spec.dims = dims;
  spec.chunk_y = options_.kernel.chunk_y;
  spec.fifo_depth = options_.kernel.stream_depth;
  switch (options_.backend.backend()) {
    case Backend::kFused:
    case Backend::kHostOverlap:
      break;
    case Backend::kMultiKernel:
      spec.kernels = options_.backend.get_if<MultiKernelOptions>()->kernels;
      break;
    case Backend::kVectorized:
      break;
    case Backend::kReference:
    case Backend::kCpuBaseline: {
      lint::Diagnostic d;
      d.severity = lint::Severity::kInfo;
      d.check = "options.no_dataflow";
      d.message = std::string(to_string(options_.backend)) +
                  " backend has no stream pipeline; only option checks "
                  "apply";
      report.diagnostics.push_back(std::move(d));
      return report;
    }
  }
  // Advection keeps the hand-written Fig. 2 description; declared stencil
  // kernels derive theirs from the StencilSpec (same stage/stream shape,
  // kernel-specific compute stages and shift geometry).
  const Kernel kernel = options_.kernel_spec.kernel();
  lint::PipelineGraph graph;
  if (kernel == Kernel::kAdvectPw) {
    graph = kernel::describe_kernel_pipeline(spec);
  } else {
    const stencil::StencilSpec* stencil_spec =
        stencil::find_stencil(to_string(kernel));
    graph = stencil::describe_stencil_pipeline(*stencil_spec, spec);
  }
  lint::LintReport graph_report = lint::run_checks(graph);
  for (lint::Diagnostic& d : graph_report.diagnostics) {
    report.diagnostics.push_back(std::move(d));
  }
  report.predicted_peak_fraction = graph_report.predicted_peak_fraction;
  return report;
}

std::optional<SolveResult> check_request(const SolveRequest& request) {
  const Backend backend = request.options.backend.backend();
  const bool advection =
      request.options.kernel_spec.kernel() == Kernel::kAdvectPw;
  if (!request.state) {
    return error_result(SolveError::kEmptyGrid, backend,
                        "request carries no wind state");
  }
  if (advection && !request.coefficients) {
    return error_result(SolveError::kEmptyGrid, backend,
                        "advection request carries no coefficients");
  }
  const grid::GridDims dims = request.state->u.dims();
  SolveError error = validate(request.options, dims);
  if (error == SolveError::kNone && request.state->u.halo() != 1) {
    error = SolveError::kHaloMismatch;
  }
  if (error == SolveError::kNone && advection) {
    const advect::PwCoefficients& c = *request.coefficients;
    for (const std::vector<double>* levels :
         {&c.tzc1, &c.tzc2, &c.tzd1, &c.tzd2}) {
      if (levels->size() != dims.nz) {
        error = SolveError::kCoefficientMismatch;
      }
    }
  }
  if (error != SolveError::kNone) {
    return error_result(error, backend);
  }
  return std::nullopt;
}

stencil::EngineConfig engine_config(const SolverOptions& options,
                                    obs::MetricsRegistry* metrics) {
  stencil::EngineConfig config;
  config.chunk_y = options.kernel.chunk_y;
  config.metrics = metrics;
  switch (options.backend.backend()) {
    case Backend::kReference:
      config.engine = stencil::Engine::kReference;
      break;
    case Backend::kCpuBaseline:
      config.engine = stencil::Engine::kThreaded;
      config.threads = options.backend.get_if<CpuBaselineOptions>()->threads;
      break;
    case Backend::kMultiKernel:
      config.engine = stencil::Engine::kMultiInstance;
      config.instances =
          options.backend.get_if<MultiKernelOptions>()->kernels;
      break;
    case Backend::kFused:
    case Backend::kHostOverlap:
      config.engine = stencil::Engine::kFused;
      break;
    case Backend::kVectorized:
      // Declared kernels keep double math, so they run the reference engine
      // and stay bit-identical to the oracle (unlike advection's f32 path).
      config.engine = stencil::Engine::kReference;
      break;
  }
  return config;
}

namespace {

/// Runs the request's kernel with `pass(spec, in, out, op)` as each of its
/// passes, Poisson's through the one sweep loop.
template <typename Pass>
void run_kernel(const SolveRequest& request, advect::SourceTerms& terms,
                const Pass& pass) {
  const grid::WindState& state = *request.state;
  const KernelSpec& spec = request.options.kernel_spec;
  switch (spec.kernel()) {
    case Kernel::kAdvectPw:
      pass(stencil::advect_spec(), kernel::inputs<3>(state),
           kernel::outputs<3>(terms),
           stencil::AdvectOp(*request.coefficients, state.u.nz()));
      break;
    case Kernel::kDiffusion:
      pass(stencil::diffusion_spec(), kernel::inputs<3>(state),
           kernel::outputs<3>(terms),
           stencil::DiffusionOp(*spec.get_if<DiffusionOptions>()));
      break;
    case Kernel::kPoissonJacobi: {
      const PoissonOptions& params = *spec.get_if<PoissonOptions>();
      const stencil::PoissonOp op(params);
      stencil::run_poisson(
          state, params, terms,
          [&](const kernel::InViews<2>& in, const kernel::OutViews<1>& next) {
            return pass(stencil::poisson_spec(), in, next, op);
          });
      break;
    }
  }
}

}  // namespace

SolveResult Solver::solve(const SolveRequest& request) const {
  if (std::optional<SolveResult> rejection = check_request(request)) {
    return std::move(*rejection);
  }
  const SolverOptions& options = request.options;
  const Backend backend = options.backend.backend();
  const Kernel kernel = options.kernel_spec.kernel();
  const grid::WindState& state = *request.state;
  const grid::GridDims dims = state.u.dims();

  SolveResult result;
  result.backend = backend;

  // One registry per solve unless the caller supplied a shared one; every
  // backend reports through it identically.
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& registry =
      options.metrics != nullptr ? *options.metrics : local_registry;

  advect::SourceTerms terms(dims);
  const auto wall_start = std::chrono::steady_clock::now();
  try {
    obs::Span solve_span(registry,
                         std::string("solve/") + to_string(backend));
    const stencil::EngineConfig engine = engine_config(options, &registry);
    if (backend == Backend::kHostOverlap) {
      // Every kernel's host_overlap: the Fig. 6 driver, each X-chunk's
      // kernel running `engine` on the device buffers.
      ocl::HostDriver driver(*options.backend.get_if<HostOptions>(), engine);
      run_kernel(request, terms, [&](const auto& spec, const auto& in,
                                     const auto& out, const auto& op) {
        return driver.run(spec, in, out, op).stats;
      });
    } else if (kernel != Kernel::kAdvectPw || backend == Backend::kFused ||
               backend == Backend::kMultiKernel) {
      run_kernel(request, terms, [&](const auto& spec, const auto& in,
                                     const auto& out, const auto& op) {
        return stencil::run_pass(spec, in, out, op, engine);
      });
    } else if (backend == Backend::kReference) {
      advect::advect_reference(state, *request.coefficients, terms);
    } else if (backend == Backend::kCpuBaseline) {
      util::ThreadPool pool(
          options.backend.get_if<CpuBaselineOptions>()->threads);
      const advect::CpuAdvectorBaseline baseline(pool);
      const auto stats = baseline.run(state, *request.coefficients, terms);
      registry.gauge_set("cpu_baseline.threads",
                         static_cast<double>(stats.threads));
      registry.gauge_set("cpu_baseline.gflops", stats.gflops);
    } else {  // advection's f32 vectorized datapath
      kernel::run_kernel_vectorized_f32(
          state, *request.coefficients, terms, options.kernel,
          options.backend.get_if<VectorizedOptions>()->lanes);
    }
  } catch (const std::exception& e) {
    // Typed instead of unwinding through Solver::submit's or a service
    // worker's thread. An injected (or, with real hardware, genuine)
    // fault::FaultError is a backend fault the serve layer retries or fails
    // over on; anything else an engine throws is not, so it is kInternal.
    const bool device_fault =
        dynamic_cast<const fault::FaultError*>(&e) != nullptr;
    registry.counter_add(device_fault ? "solve.backend_fault"
                                      : "solve.internal_error");
    SolveResult failed = error_result(
        device_fault ? SolveError::kBackendFault : SolveError::kInternal,
        backend, e.what());
    failed.metrics = registry.snapshot();
    return failed;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.gflops =
      result.seconds > 0.0
          ? static_cast<double>(total_flops(options.kernel_spec, dims)) /
                result.seconds / 1e9
          : 0.0;

  registry.counter_add("solve.count");
  registry.counter_add(std::string("solve.kernel.") + to_string(kernel));
  registry.gauge_set("solve.seconds", result.seconds);
  registry.gauge_set("solve.gflops", result.gflops);
  registry.gauge_set("solve.cells", static_cast<double>(dims.cells()));

  result.terms = std::make_shared<const advect::SourceTerms>(std::move(terms));
  result.metrics = registry.snapshot();
  return result;
}

SolveResult Solver::solve(const grid::WindState& state,
                          const advect::PwCoefficients& coefficients) const {
  return solve(borrow_request(state, coefficients, options_));
}

SolveFuture Solver::submit(SolveRequest request) const {
  auto state = std::make_shared<detail::SolveState>();
  detail::SolveState* raw = state.get();
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.timeout.count() > 0) {
    deadline = std::chrono::steady_clock::now() + request.timeout;
  }
  // The worker references the state raw: the futures own it, and the last
  // future to drop it joins this thread (see SolveState::~SolveState), so
  // the state strictly outlives the thread.
  raw->owned_thread =
      std::thread([raw, deadline, request = std::move(request)] {
        const Backend backend = request.options.backend.backend();
        if (!raw->try_begin()) {
          raw->complete(error_result(SolveError::kCancelled, backend));
          return;
        }
        if (deadline && std::chrono::steady_clock::now() > *deadline) {
          raw->complete(
              error_result(SolveError::kDeadlineExceeded, backend));
          return;
        }
        raw->complete(Solver(request.options).solve(request));
      });
  return SolveFuture(std::move(state));
}

}  // namespace pw::api
