#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/config.hpp"
#include "pw/lint/diagnostic.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/ocl/host_driver.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"

namespace pw::api {

/// Which stencil kernel a solve computes. The facade was advection-only
/// until the pw::stencil generalisation; every kernel here is declared on
/// the stencil template and served by the same backends, service and
/// caches.
enum class Kernel {
  kAdvectPw,       ///< PW advection source terms (the paper's workload)
  kDiffusion,      ///< 7-point explicit diffusion tendencies
  kPoissonJacobi,  ///< Jacobi iteration for lap(u) = rhs
};

const char* to_string(Kernel kernel);

/// Inverse of to_string: "diffusion" -> kDiffusion; nullopt for anything
/// else. Round-tripped exhaustively by tests, like parse_backend.
std::optional<Kernel> parse_kernel(std::string_view name);

/// Every Kernel enumerator, for exhaustive iteration in tests and CLIs.
inline constexpr std::array<Kernel, 3> kAllKernels = {
    Kernel::kAdvectPw,
    Kernel::kDiffusion,
    Kernel::kPoissonJacobi,
};

/// Which implementation services a solve. Every backend computes the same
/// PW advection source terms; they differ in execution strategy (and the
/// metrics they emit along the way).
enum class Backend {
  kReference,    ///< serial oracle (advect_reference)
  kCpuBaseline,  ///< threaded CPU comparator (paper's 24-core Xeon row)
  kFused,        ///< single fused dataflow kernel (FPGA datapath, 1 thread)
  kMultiKernel,  ///< N concurrent kernel instances (multi-compute-unit)
  kHostOverlap,  ///< Fig. 6 host driver: X-chunked transfers + kernels
  kVectorized,   ///< float32 vector-batch datapath (Versal AIE sketch)
};

const char* to_string(Backend backend);

/// Inverse of to_string: "multi_kernel" -> kMultiKernel; nullopt for
/// anything else. The exhaustiveness test round-trips every enumerator
/// through this pair so a new backend cannot ship with a missing name.
std::optional<Backend> parse_backend(std::string_view name);

/// Every Backend enumerator, for exhaustive iteration in tests and CLIs.
inline constexpr std::array<Backend, 6> kAllBackends = {
    Backend::kReference,   Backend::kCpuBaseline, Backend::kFused,
    Backend::kMultiKernel, Backend::kHostOverlap, Backend::kVectorized,
};

/// Typed validation and serving failures — the facade and the serve layer
/// reject bad requests with these instead of asserting deep inside a
/// backend or silently dropping work.
enum class SolveError {
  kNone,
  kEmptyGrid,          ///< nx, ny or nz is zero (or a request carries none)
  kHaloMismatch,       ///< fields must carry a halo of exactly 1
  kNoKernelInstances,  ///< kMultiKernel with kernels == 0
  kNoLanes,            ///< kVectorized with lanes == 0
  kNoChunks,           ///< kHostOverlap overlapped with x_chunks == 0
  // Serving-layer outcomes (pw::serve and the async facade).
  kRejectedByLint,     ///< admission-time pw::lint check battery failed
  kQueueFull,          ///< bounded admission queue rejected the request
  kDeadlineExceeded,   ///< request deadline passed before completion
  kCancelled,          ///< cancelled via SolveFuture::cancel before running
  kServiceStopped,     ///< submitted to (or abandoned by) a stopped service
  kBackendFault,       ///< a transfer, kernel or allocation fault mid-solve
  // Per-kernel option failures (KernelSpec validation).
  kNoIterations,        ///< Jacobi/Poisson kernel with iterations == 0
  kInvalidDiffusivity,  ///< diffusion kappa negative or non-finite
  kInvalidSpacing,      ///< a kernel grid spacing is non-positive/non-finite
  kCoefficientMismatch,  ///< an advection coefficient vector's length != nz
  kInternal,  ///< an engine threw something that is not a device fault
};

std::string describe(SolveError error);

/// Every SolveError enumerator, for exhaustive iteration in tests.
inline constexpr std::array<SolveError, 17> kAllSolveErrors = {
    SolveError::kNone,
    SolveError::kEmptyGrid,
    SolveError::kHaloMismatch,
    SolveError::kNoKernelInstances,
    SolveError::kNoLanes,
    SolveError::kNoChunks,
    SolveError::kRejectedByLint,
    SolveError::kQueueFull,
    SolveError::kDeadlineExceeded,
    SolveError::kCancelled,
    SolveError::kServiceStopped,
    SolveError::kBackendFault,
    SolveError::kNoIterations,
    SolveError::kInvalidDiffusivity,
    SolveError::kInvalidSpacing,
    SolveError::kCoefficientMismatch,
    SolveError::kInternal,
};

// ---------------------------------------------------------------------------
// Per-backend options. Exactly one of these lives in a BackendSpec, so a
// configuration like "lanes with kMultiKernel" is unrepresentable rather
// than merely rejected.

struct ReferenceOptions {};

struct CpuBaselineOptions {
  std::size_t threads = 0;  ///< 0 = hardware_concurrency
};

struct FusedOptions {};

struct MultiKernelOptions {
  std::size_t kernels = 4;  ///< concurrent kernel instance count
};

struct VectorizedOptions {
  std::size_t lanes = 8;  ///< f32 vector width
};

/// Knobs of Backend::kHostOverlap: the ocl::HostDriver's own struct, which
/// every kernel's host_overlap runs through (X-chunks, overlap, device
/// timing, kernel time model). Deliberately *without* a KernelConfig:
/// SolverOptions.kernel is the single construction point for the kernel
/// each chunk runs.
using HostOptions = ocl::HostOptions;

/// The backend selection *and* its knobs as one value: a tagged union whose
/// alternatives mirror the Backend enumerators in order. Assigning a plain
/// Backend picks that backend with default knobs, so the pre-variant
/// `options.backend = Backend::kFused;` style still compiles; assigning an
/// options struct picks the backend the struct belongs to.
class BackendSpec {
 public:
  using Variant =
      std::variant<ReferenceOptions, CpuBaselineOptions, FusedOptions,
                   MultiKernelOptions, HostOptions, VectorizedOptions>;

  BackendSpec() : spec_(ReferenceOptions{}) {}
  BackendSpec(Backend backend);  // NOLINT: implicit by design
  BackendSpec(ReferenceOptions options) : spec_(options) {}
  BackendSpec(CpuBaselineOptions options) : spec_(options) {}
  BackendSpec(FusedOptions options) : spec_(options) {}
  BackendSpec(MultiKernelOptions options) : spec_(options) {}
  BackendSpec(VectorizedOptions options) : spec_(options) {}
  BackendSpec(HostOptions options) : spec_(std::move(options)) {}

  /// The enum tag derived from the active alternative (their orders match).
  Backend backend() const noexcept {
    return static_cast<Backend>(spec_.index());
  }

  template <typename T>
  const T* get_if() const noexcept {
    return std::get_if<T>(&spec_);
  }
  template <typename T>
  T* get_if() noexcept {
    return std::get_if<T>(&spec_);
  }

  bool operator==(Backend other) const noexcept {
    return backend() == other;
  }

 private:
  Variant spec_;
};

// BackendSpec::backend() derives the enum tag from the variant index, so
// alternative order and enumerator order must stay in lockstep.
template <Backend B, typename T>
inline constexpr bool kSpecOrderMatches = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(B),
                               BackendSpec::Variant>,
    T>;
static_assert(kSpecOrderMatches<Backend::kReference, ReferenceOptions>);
static_assert(kSpecOrderMatches<Backend::kCpuBaseline, CpuBaselineOptions>);
static_assert(kSpecOrderMatches<Backend::kFused, FusedOptions>);
static_assert(kSpecOrderMatches<Backend::kMultiKernel, MultiKernelOptions>);
static_assert(kSpecOrderMatches<Backend::kHostOverlap, HostOptions>);
static_assert(kSpecOrderMatches<Backend::kVectorized, VectorizedOptions>);

inline const char* to_string(const BackendSpec& spec) {
  return to_string(spec.backend());
}

// ---------------------------------------------------------------------------
// Per-kernel options, mirroring the BackendSpec design: exactly one
// alternative lives in a KernelSpec, so "poisson iterations on an advection
// request" is unrepresentable rather than merely rejected.

/// PW advection has no per-kernel knobs — its coefficients travel as the
/// request's PwCoefficients payload, which every request of this kernel
/// must carry.
struct AdvectPwOptions {};

/// Diffusion knobs are the stencil kernel's declared parameters.
using DiffusionOptions = stencil::DiffusionParams;

/// Jacobi/Poisson knobs, including the per-request iteration count.
using PoissonOptions = stencil::PoissonParams;

/// The kernel selection *and* its knobs as one value: a tagged union whose
/// alternatives mirror the Kernel enumerators in order. Assigning a plain
/// Kernel picks that kernel with default knobs; assigning an options
/// struct picks the kernel the struct belongs to. Default-constructed it
/// selects PW advection, so every pre-KernelSpec call site keeps its
/// behaviour unchanged.
class KernelSpec {
 public:
  using Variant =
      std::variant<AdvectPwOptions, DiffusionOptions, PoissonOptions>;

  KernelSpec() : spec_(AdvectPwOptions{}) {}
  KernelSpec(Kernel kernel);  // NOLINT: implicit by design
  KernelSpec(AdvectPwOptions options) : spec_(options) {}
  KernelSpec(DiffusionOptions options) : spec_(options) {}
  KernelSpec(PoissonOptions options) : spec_(options) {}

  /// The enum tag derived from the active alternative (their orders match).
  Kernel kernel() const noexcept { return static_cast<Kernel>(spec_.index()); }

  template <typename T>
  const T* get_if() const noexcept {
    return std::get_if<T>(&spec_);
  }
  template <typename T>
  T* get_if() noexcept {
    return std::get_if<T>(&spec_);
  }

  bool operator==(Kernel other) const noexcept { return kernel() == other; }

 private:
  Variant spec_;
};

// KernelSpec::kernel() derives the enum tag from the variant index, so
// alternative order and enumerator order must stay in lockstep — adding a
// kernel without extending both fails to compile here.
template <Kernel K, typename T>
inline constexpr bool kKernelSpecOrderMatches = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(K),
                               KernelSpec::Variant>,
    T>;
static_assert(kKernelSpecOrderMatches<Kernel::kAdvectPw, AdvectPwOptions>);
static_assert(kKernelSpecOrderMatches<Kernel::kDiffusion, DiffusionOptions>);
static_assert(
    kKernelSpecOrderMatches<Kernel::kPoissonJacobi, PoissonOptions>);
static_assert(std::variant_size_v<KernelSpec::Variant> == kAllKernels.size(),
              "every Kernel enumerator needs a KernelSpec alternative");

inline const char* to_string(const KernelSpec& spec) {
  return to_string(spec.kernel());
}

/// All options for every backend and kernel, in one place. Backend-specific
/// knobs live inside `backend` (a BackendSpec) and kernel-specific knobs
/// inside `kernel_spec` (a KernelSpec), so only the active selections'
/// knobs exist at all.
struct SolverOptions {
  BackendSpec backend;     ///< which backend + its knobs
  KernelSpec kernel_spec;  ///< which stencil kernel + its knobs
  kernel::KernelConfig kernel;  ///< the one kernel config (all backends)
  /// External metrics sink. When null the solver uses a private registry;
  /// either way SolveResult.metrics carries the snapshot.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Total floating-point work one solve of `spec` performs over `dims` —
/// what SolveResult.gflops and the serve layer's aggregate-GFLOPS
/// accounting divide by. Advection uses the exact 63/55 column-top
/// schedule; declared stencil kernels use their spec's FLOPs/cell (times
/// the request's sweep count for iterative kernels).
std::uint64_t total_flops(const KernelSpec& spec, const grid::GridDims& dims);

/// Outcome of one solve. `terms` is non-null iff ok(); `metrics` always
/// carries the registry snapshot for the run (empty on validation errors).
/// The terms are behind a shared_ptr so copying a SolveResult is cheap —
/// the serve layer's result cache hands the same computed terms to every
/// request with the request's content fingerprint, without duplicating
/// megabytes of field data per hit.
struct SolveResult {
  SolveError error = SolveError::kNone;
  std::string message;  ///< human-readable error detail ("" when ok)
  Backend backend = Backend::kReference;
  double seconds = 0.0;  ///< wall-clock solve time
  double gflops = 0.0;   ///< total_flops / seconds
  bool cached = false;   ///< served from a pw::serve result cache
  /// Served by a failover backend after the requested backend faulted
  /// (pw::serve graceful degradation): `backend` then names the backend
  /// that actually computed the terms, not the one requested.
  bool degraded = false;
  /// Solve attempts consumed (1 = first try succeeded; >1 after retries).
  std::uint32_t attempts = 1;
  std::shared_ptr<const advect::SourceTerms> terms;
  obs::RegistrySnapshot metrics;

  bool ok() const noexcept { return error == SolveError::kNone; }
};

/// A SolveResult carrying only a typed error (no terms, empty metrics) —
/// the shape every rejection path (validation, admission, deadline,
/// cancellation) produces.
SolveResult error_result(SolveError error, Backend backend,
                         std::string message = "");

/// Grid-independent validation (lane/kernel/chunk counts). Returns kNone
/// when the options could be valid for some grid.
SolveError validate(const SolverOptions& options);

/// Full validation against a concrete grid.
SolveError validate(const SolverOptions& options, const grid::GridDims& dims);

/// The stencil engine `options.backend` runs on: the one backend -> engine
/// map, shared by Solver::solve (declared kernels and advection's streaming
/// backends) and every shard of a pw::shard::ShardedSolver. `metrics`, when
/// non-null, receives each pass's span and counters. host_overlap maps to
/// kFused: that is what the ocl::HostDriver's kernel runs on each X-chunk,
/// and what a shard runs, since ShardOptions::interconnect already prices
/// a shard's host link.
stencil::EngineConfig engine_config(const SolverOptions& options,
                                    obs::MetricsRegistry* metrics = nullptr);

struct SolveRequest;  // pw/api/request.hpp
class SolveFuture;    // pw/api/request.hpp

/// The unified entry point: one object, one `solve`, any backend, any
/// declared stencil kernel — every run instrumented through the same
/// MetricsRegistry (a `solve/<backend>` span plus whatever the backend
/// layers emit). options().kernel_spec selects the kernel (PW advection by
/// default). Every kernel's fused, multi_kernel and host_overlap backends
/// run stencil::run_pass (host_overlap once per X-chunk, inside the
/// ocl::HostDriver's Fig. 6 schedule), so advection reports
/// `stencil.advect_pw.*` like the declared kernels. Any exception an engine
/// throws comes back typed: a fault::FaultError as kBackendFault, anything
/// else as kInternal. The low-level entry points (advect_reference,
/// stencil::run_pass, stencil::run_diffusion, ...) remain available for
/// code that needs the raw stats structs.
///
/// The request form is the primary surface: pack fields (+ coefficients
/// for advection) + options into a SolveRequest and call solve(request)
/// (blocking) or submit(request) (async, returns a SolveFuture). The
/// positional solve(state, coefficients) remains as a thin wrapper.
class Solver {
 public:
  Solver() = default;
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  const SolverOptions& options() const noexcept { return options_; }
  SolverOptions& options() noexcept { return options_; }

  /// Blocking solve of one request, honouring request.options. Never throws
  /// on a malformed request: check_request's typed rejection is returned
  /// before any backend runs.
  SolveResult solve(const SolveRequest& request) const;

  /// Thin wrapper over the request form using this solver's options.
  SolveResult solve(const grid::WindState& state,
                    const advect::PwCoefficients& coefficients) const;

  /// Asynchronous solve: returns immediately with a SolveFuture that
  /// becomes ready when the solve (run on its own thread) completes.
  /// request.timeout, when non-zero, is enforced as a deadline; the future
  /// supports poll/wait/cancel. For many concurrent requests prefer
  /// pw::serve::SolveService, which adds admission control, batching and
  /// worker pools on top of the same future type.
  SolveFuture submit(SolveRequest request) const;

  /// Static verification of the configured backend's dataflow graph for
  /// `dims`, before (and without) running anything: the option-level
  /// validate() checks plus the full pw::lint battery over the pipeline
  /// the backend would construct (connectivity, deadlock capacity,
  /// throughput vs. the II=1 peak, shift-buffer geometry). A report with
  /// passed() == false means solve() would either reject the options or
  /// run a malformed pipeline.
  lint::LintReport validate(const grid::GridDims& dims) const;

 private:
  SolverOptions options_;
};

}  // namespace pw::api
