// Tests for the serving layer: admission (typed rejection before any worker
// runs), batching, backpressure, deadlines, cancellation, the result cache,
// the ServiceReport artefact — plus the async solver facade and the
// enum/variant exhaustiveness contracts the service relies on.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pw/grid/compare.hpp"
#include "pw/obs/export.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"

namespace {

using namespace pw;
using namespace std::chrono_literals;

std::shared_ptr<const grid::WindState> shared_state(const grid::GridDims& dims,
                                                    std::uint64_t seed) {
  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_random(*state, seed);
  return state;
}

std::shared_ptr<const advect::PwCoefficients> shared_coefficients(
    const grid::GridDims& dims) {
  return std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));
}

api::SolveRequest small_request(api::Backend backend = api::Backend::kFused,
                                std::uint64_t seed = 7) {
  const grid::GridDims dims{16, 16, 16};
  api::SolverOptions options;
  options.backend = backend;
  options.kernel.chunk_y = 8;
  return api::make_request(shared_state(dims, seed),
                           shared_coefficients(dims), options);
}

// A request whose solve takes real wall time (about 1M cells through the
// single-threaded CPU baseline) — used to pin the lone worker down so
// queueing behaviour becomes deterministic on any machine.
api::SolveRequest slow_request() {
  const grid::GridDims dims{128, 128, 64};
  api::SolverOptions options;
  options.backend = api::CpuBaselineOptions{.threads = 1};
  options.kernel.chunk_y = 8;
  return api::make_request(shared_state(dims, 3), shared_coefficients(dims),
                           options);
}

// Spins until the dispatcher has handed `batches` batches to a pool.
void wait_for_batches(serve::SolveService& service, std::size_t batches) {
  while (service.metrics().histogram("serve.batch.size").count < batches) {
    std::this_thread::sleep_for(1ms);
  }
}

// ---------------------------------------------------------------------------
// service basics

TEST(ServeService, SingleRequestMatchesDirectSolve) {
  api::SolveRequest request = small_request();
  const api::SolveResult direct =
      api::Solver(request.options).solve(request);
  ASSERT_TRUE(direct.ok()) << direct.message;

  serve::SolveService service;
  api::SolveFuture future = service.submit(request);
  ASSERT_TRUE(future.valid());
  const api::SolveResult& served = future.wait();
  ASSERT_TRUE(served.ok()) << served.message;
  EXPECT_FALSE(served.cached);
  EXPECT_TRUE(grid::compare_interior(direct.terms->su, served.terms->su)
                  .bit_equal());
  EXPECT_TRUE(grid::compare_interior(direct.terms->sv, served.terms->sv)
                  .bit_equal());
  EXPECT_TRUE(grid::compare_interior(direct.terms->sw, served.terms->sw)
                  .bit_equal());

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.computed, 1u);
  EXPECT_EQ(report.latency_s.count, 1u);
}

TEST(ServeService, InvalidOptionsAreTypedErrorsNotWorkerRuns) {
  serve::SolveService service;
  api::SolveRequest request = small_request();
  request.options.backend = api::MultiKernelOptions{.kernels = 0};
  const api::SolveResult result = service.submit(request).wait();
  EXPECT_EQ(result.error, api::SolveError::kNoKernelInstances);
  EXPECT_FALSE(result.ok());

  api::SolveRequest empty;  // no payloads at all
  EXPECT_EQ(service.submit(empty).wait().error, api::SolveError::kEmptyGrid);

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.rejected_options, 2u);
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(report.batch_size.count, 0u);  // nothing ever dispatched
}

TEST(ServeService, CoefficientMismatchIsRejectedAtAdmission) {
  // Coefficients for nz -/+ 1 levels used to pass admission and throw on a
  // pool worker, leaving the future incomplete forever.
  serve::SolveService service;
  for (const std::size_t levels : {15, 17}) {
    api::SolveRequest request = small_request();  // a 16^3 grid
    request.coefficients = shared_coefficients({16, 16, levels});
    const api::SolveFuture future = service.submit(request);
    ASSERT_TRUE(future.wait_for(10s));
    EXPECT_EQ(future.result().error, api::SolveError::kCoefficientMismatch);
  }
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.rejected_options, 2u);
  EXPECT_EQ(report.computed, 0u);
}

TEST(ServeService, LintRejectedRequestNeverReachesAWorker) {
  // chunk_y = 4 passes option-level validation but trips the
  // shift_buffer.short_burst lint warning; a kWarning admission policy
  // turns that into a typed rejection at submit time.
  serve::ServiceConfig config;
  config.admission.reject_at = lint::Severity::kWarning;
  serve::SolveService service(config);

  api::SolveRequest request = small_request();
  request.options.kernel.chunk_y = 4;
  const api::SolveResult result = service.submit(request).wait();
  EXPECT_EQ(result.error, api::SolveError::kRejectedByLint);
  EXPECT_NE(result.message.find("shift_buffer.short_burst"),
            std::string::npos)
      << result.message;

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.rejected_lint, 1u);
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(report.batch_size.count, 0u);  // never dispatched, never ran

  // The same shape admits under the default (kError) policy.
  serve::SolveService lenient;
  EXPECT_TRUE(lenient.submit(request).wait().ok());
}

TEST(ServeService, BackpressureReturnsQueueFull) {
  serve::ServiceConfig config;
  config.queue_capacity = 2;
  config.workers_per_backend = 1;
  config.max_batch = 1;  // in-flight cap 1: the queue is the only buffer
  config.block_when_full = false;
  serve::SolveService service(config);

  api::SolveFuture slow = service.submit(slow_request());
  wait_for_batches(service, 1);  // dispatcher now throttled behind it

  api::SolveFuture q1 = service.submit(small_request());
  api::SolveFuture q2 = service.submit(small_request());
  const api::SolveResult shed = service.submit(small_request()).wait();
  EXPECT_EQ(shed.error, api::SolveError::kQueueFull);

  EXPECT_TRUE(slow.wait().ok());
  EXPECT_TRUE(q1.wait().ok());
  EXPECT_TRUE(q2.wait().ok());
  EXPECT_EQ(service.report().rejected_backpressure, 1u);
}

TEST(ServeService, QueuedDeadlineExpiresAsTypedError) {
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded over 4 devices" : "single device");
    serve::ServiceConfig config;
    config.workers_per_backend = 1;
    config.max_batch = 1;
    if (sharded) {
      config.shard.emplace();
      config.shard->devices = 4;
    }
    serve::SolveService service(config);

    api::SolveFuture slow = service.submit(slow_request());
    wait_for_batches(service, 1);

    api::SolveRequest doomed = small_request();
    doomed.timeout = 1ns;  // expires while queued behind the slow solve
    const api::SolveResult result = service.submit(doomed).wait();
    EXPECT_EQ(result.error, api::SolveError::kDeadlineExceeded);
    EXPECT_TRUE(slow.wait().ok());
    EXPECT_EQ(service.report().deadline_exceeded, 1u);
    EXPECT_EQ(service.report().computed, 1u);  // the doomed one never ran
  }
}

TEST(ServeService, CancelBeforeRunCompletesWithCancelled) {
  serve::ServiceConfig config;
  config.workers_per_backend = 1;
  config.max_batch = 1;
  serve::SolveService service(config);

  api::SolveFuture slow = service.submit(slow_request());
  wait_for_batches(service, 1);

  api::SolveFuture queued = service.submit(small_request());
  EXPECT_TRUE(queued.cancel());  // not started: cancellation is guaranteed
  EXPECT_EQ(queued.wait().error, api::SolveError::kCancelled);
  EXPECT_FALSE(queued.cancel());  // already done
  EXPECT_TRUE(slow.wait().ok());
  EXPECT_EQ(service.report().cancelled, 1u);
}

TEST(ServeService, ResultCacheServesIdenticalRequests) {
  serve::SolveService service;
  api::SolveRequest request = small_request(api::Backend::kReference);

  const api::SolveResult first = service.submit(request).wait();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cached);

  const api::SolveResult second = service.submit(request).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_TRUE(grid::compare_interior(first.terms->su, second.terms->su)
                  .bit_equal());

  // Same shape, different field contents: a plan-cache hit (same pipeline)
  // but a result-cache miss (different fingerprint).
  const api::SolveResult third =
      service.submit(small_request(api::Backend::kReference, 1234)).wait();
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.cached);

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.computed, 2u);
  EXPECT_EQ(report.result_cache_hits, 1u);
  EXPECT_EQ(report.plan_cache_hits, 2u);
  EXPECT_EQ(report.plan_cache_misses, 1u);
}

TEST(ServeService, ResultCacheCanBeDisabled) {
  serve::ServiceConfig config;
  config.result_cache = false;
  serve::SolveService service(config);
  api::SolveRequest request = small_request(api::Backend::kReference);
  EXPECT_FALSE(service.submit(request).wait().cached);
  EXPECT_FALSE(service.submit(request).wait().cached);
  EXPECT_EQ(service.report().computed, 2u);
  EXPECT_EQ(service.report().result_cache_hits, 0u);
}

TEST(ServeService, SamePlanRequestsBatchTogether) {
  // max_in_flight = 1, so once the slow solve is dispatched the throttle
  // gate stays shut until it finishes: the four small requests accumulate
  // in the admission queue. When the gate reopens the dispatcher drains
  // them greedily, max_batch at a time — same-plan requests leave as
  // multi-entry batches, capped at max_batch.
  serve::ServiceConfig config;
  config.workers_per_backend = 1;
  config.max_batch = 2;
  config.max_in_flight = 1;
  serve::SolveService service(config);

  api::SolveFuture slow = service.submit(slow_request());
  wait_for_batches(service, 1);  // the slow pin is dispatched, gate shut

  std::vector<api::SolveFuture> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(small_request()));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.wait().ok());
  }
  EXPECT_TRUE(slow.wait().ok());

  const serve::ServiceReport report = service.report();
  // Batching happened, and no batch exceeded max_batch.
  EXPECT_EQ(report.batch_size.max, 2.0);
  EXPECT_EQ(report.completed, 5u);
}

TEST(ServeService, ReportExportsJsonAndTable) {
  serve::SolveService service;
  EXPECT_TRUE(service.submit(small_request()).wait().ok());
  const serve::ServiceReport report = service.report();

  const std::string json = serve::to_json(report);
  EXPECT_NE(json.find("\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate_gflops\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);

  // The embedded metrics document round-trips through the obs exporter.
  const auto parsed = obs::from_json(obs::to_json(report.metrics));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counters.at("serve.submitted"), 1u);

  const util::Table table = serve::to_table(report);
  EXPECT_GT(table.rows(), 5u);
}

TEST(ServeService, ShutdownRejectsNewWorkButDrainsAdmitted) {
  auto service = std::make_unique<serve::SolveService>();
  std::vector<api::SolveFuture> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service->submit(small_request()));
  }
  service->shutdown(/*drain_queued=*/true);
  for (auto& f : futures) {
    EXPECT_TRUE(f.ready());
    EXPECT_TRUE(f.wait().ok());
  }
  EXPECT_TRUE(service->stopped());
  EXPECT_EQ(service->submit(small_request()).wait().error,
            api::SolveError::kServiceStopped);
  service.reset();  // double shutdown via destructor is safe
}

TEST(ServeService, ExternalRegistryReceivesServiceMetrics) {
  obs::MetricsRegistry registry;
  serve::ServiceConfig config;
  config.metrics = &registry;
  serve::SolveService service(config);
  EXPECT_TRUE(service.submit(small_request()).wait().ok());
  EXPECT_EQ(registry.counter("serve.submitted"), 1u);
  EXPECT_EQ(registry.counter("serve.requests.completed"), 1u);
  EXPECT_EQ(registry.counter("serve.computed"), 1u);
  EXPECT_EQ(registry.histogram("serve.latency_s").count, 1u);
  // Per-solve internals stay in the solve's own private registry (carried
  // by its SolveResult), not the service sink — see SolveService::submit.
  EXPECT_EQ(registry.counter("solve.count"), 0u);
}

// ---------------------------------------------------------------------------
// trace generator

TEST(ServeTrace, DeterministicInSeed) {
  serve::TraceSpec spec;
  spec.requests = 24;
  const auto a = serve::make_trace(spec);
  const auto b = serve::make_trace(spec);
  ASSERT_EQ(a.size(), 24u);
  ASSERT_EQ(b.size(), 24u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].options.backend.backend(), b[i].options.backend.backend());
  }
}

TEST(ServeTrace, HotPayloadsAreShared) {
  serve::TraceSpec spec;
  spec.requests = 32;
  spec.shapes = {{16, 16, 16}};
  spec.repeat_fraction = 1.0;
  spec.hot_payloads = 1;
  const auto trace = serve::make_trace(spec);
  for (const auto& request : trace) {
    EXPECT_EQ(request.state, trace.front().state);  // same shared payload
    EXPECT_EQ(request.coefficients, trace.front().coefficients);
  }

  spec.repeat_fraction = 0.0;
  const auto cold = serve::make_trace(spec);
  std::set<const grid::WindState*> distinct;
  for (const auto& request : cold) {
    distinct.insert(request.state.get());
  }
  EXPECT_EQ(distinct.size(), cold.size());
}

TEST(ServeTrace, ServiceDrainsAWholeTrace) {
  serve::TraceSpec spec;
  spec.requests = 12;
  serve::SolveService service;
  auto futures = service.submit_all(serve::make_trace(spec));
  ASSERT_EQ(futures.size(), 12u);
  service.drain();
  for (auto& f : futures) {
    EXPECT_TRUE(f.ready());
    EXPECT_TRUE(f.wait().ok()) << f.wait().message;
  }
  EXPECT_EQ(service.report().completed, 12u);
}

// ---------------------------------------------------------------------------
// plan cache

TEST(ServePlanCache, AmortisesLintAcrossSameShape) {
  serve::PlanCache cache;
  const grid::GridDims dims{16, 16, 16};
  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 8;

  const auto first = cache.lookup(dims, options);
  const auto second = cache.lookup(dims, options);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_TRUE(first->admitted);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  options.backend = api::MultiKernelOptions{.kernels = 2};
  const auto third = cache.lookup(dims, options);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServePlanCache, KeyEncodesBackendKnobs) {
  const grid::GridDims dims{8, 8, 8};
  api::SolverOptions a;
  a.backend = api::MultiKernelOptions{.kernels = 2};
  api::SolverOptions b;
  b.backend = api::MultiKernelOptions{.kernels = 4};
  EXPECT_NE(serve::plan_key(dims, a), serve::plan_key(dims, b));

  api::HostOptions four;
  four.x_chunks = 4;
  api::HostOptions eight;
  eight.x_chunks = 8;
  api::SolverOptions host1;
  host1.backend = four;
  api::SolverOptions host2;
  host2.backend = eight;
  EXPECT_NE(serve::plan_key(dims, host1), serve::plan_key(dims, host2));
}

TEST(ServePlanCache, FingerprintTracksPayloadContent) {
  const grid::GridDims dims{8, 8, 8};
  auto coefficients = shared_coefficients(dims);
  api::SolverOptions options;

  api::SolveRequest a =
      api::make_request(shared_state(dims, 1), coefficients, options);
  api::SolveRequest same =
      api::make_request(a.state, coefficients, options);  // shared payload
  api::SolveRequest other =
      api::make_request(shared_state(dims, 2), coefficients, options);

  EXPECT_EQ(serve::request_fingerprint(a), serve::request_fingerprint(same));
  EXPECT_NE(serve::request_fingerprint(a), serve::request_fingerprint(other));
}

// ---------------------------------------------------------------------------
// async solver facade

TEST(ServeFacade, SubmitMatchesBlockingSolve) {
  api::SolveRequest request = small_request();
  const api::Solver solver(request.options);
  const api::SolveResult blocking = solver.solve(request);
  ASSERT_TRUE(blocking.ok());

  api::SolveFuture future = solver.submit(request);
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.wait_for(30s));
  const api::SolveResult& async = future.result();
  ASSERT_TRUE(async.ok()) << async.message;
  EXPECT_TRUE(grid::compare_interior(blocking.terms->su, async.terms->su)
                  .bit_equal());
}

TEST(ServeFacade, InvalidFutureAndErrorPropagation) {
  api::SolveFuture invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.ready());
  EXPECT_FALSE(invalid.cancel());

  api::SolveRequest request;  // empty payloads
  request.options.backend = api::Backend::kFused;
  // By value: the temporary future (and the shared state backing wait()'s
  // reference) dies at the end of the full expression.
  const api::SolveResult result =
      api::Solver(request.options).submit(request).wait();
  EXPECT_EQ(result.error, api::SolveError::kEmptyGrid);
}

TEST(ServeFacade, BlockingSolveIsARequestWrapper) {
  const grid::GridDims dims{16, 16, 16};
  grid::WindState state(dims);
  grid::init_random(state, 5);
  const auto coefficients = *shared_coefficients(dims);
  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 8;
  const api::Solver solver(options);

  const api::SolveResult positional = solver.solve(state, coefficients);
  const api::SolveResult via_request = solver.solve(
      api::borrow_request(state, coefficients, options));
  ASSERT_TRUE(positional.ok());
  ASSERT_TRUE(via_request.ok());
  EXPECT_TRUE(
      grid::compare_interior(positional.terms->su, via_request.terms->su)
          .bit_equal());
}

// ---------------------------------------------------------------------------
// enum / variant exhaustiveness (the service dispatches on these, so every
// enumerator must round-trip through its string form and carry a message)

TEST(ServeEnums, BackendRoundTripsThroughStrings) {
  std::set<std::string> names;
  for (const api::Backend backend : api::kAllBackends) {
    const std::string name = api::to_string(backend);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << name << " is duplicated";
    const auto parsed = api::parse_backend(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(api::parse_backend("no_such_backend").has_value());
}

TEST(ServeEnums, BackendSpecTagMatchesEveryEnumerator) {
  for (const api::Backend backend : api::kAllBackends) {
    const api::BackendSpec spec(backend);
    EXPECT_EQ(spec.backend(), backend) << api::to_string(backend);
    EXPECT_TRUE(spec == backend);
  }
  // Assigning a knob struct selects its backend.
  EXPECT_EQ(api::BackendSpec(api::CpuBaselineOptions{}).backend(),
            api::Backend::kCpuBaseline);
  EXPECT_EQ(api::BackendSpec(api::MultiKernelOptions{}).backend(),
            api::Backend::kMultiKernel);
  EXPECT_EQ(api::BackendSpec(api::VectorizedOptions{}).backend(),
            api::Backend::kVectorized);
  EXPECT_EQ(api::BackendSpec(api::HostOptions{}).backend(),
            api::Backend::kHostOverlap);
  // Knobs survive the trip into the spec.
  api::BackendSpec spec = api::MultiKernelOptions{.kernels = 7};
  ASSERT_NE(spec.get_if<api::MultiKernelOptions>(), nullptr);
  EXPECT_EQ(spec.get_if<api::MultiKernelOptions>()->kernels, 7u);
  EXPECT_EQ(spec.get_if<api::VectorizedOptions>(), nullptr);
}

TEST(ServeEnums, EverySolveErrorHasADistinctDescription) {
  std::set<std::string> messages;
  for (const api::SolveError error : api::kAllSolveErrors) {
    const std::string message = api::describe(error);
    EXPECT_FALSE(message.empty());
    EXPECT_NE(message, "unknown error");
    EXPECT_TRUE(messages.insert(message).second)
        << message << " is duplicated";
  }
}

}  // namespace
