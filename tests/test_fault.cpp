// Tests for the fault-injection resilience layer: the FaultPlan format and
// deterministic FaultInjector, the per-layer hook sites (dataflow streams,
// the simulated OpenCL runtime, the transfer scheduler), the circuit
// breaker state machine, and the SolveService retry / breaker / failover
// ladder built on top — including the SolveFuture edge races around
// cancellation, completion and deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pw/fault/breaker.hpp"
#include "pw/fault/fault.hpp"
#include "pw/fault/injector.hpp"
#include "pw/dataflow/stream.hpp"
#include "pw/grid/compare.hpp"
#include "pw/serve/service.hpp"
#include "pw/xfer/event_graph.hpp"

namespace {

using namespace pw;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// plan format

TEST(FaultPlan, KindNamesRoundTrip) {
  for (const fault::FaultKind kind : fault::kAllFaultKinds) {
    const auto parsed = fault::parse_fault_kind(fault::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << fault::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(fault::parse_fault_kind("segfault").has_value());
}

TEST(FaultPlan, SerialisationRoundTrips) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultRule rule;
  rule.site = "serve.solve.fused";
  rule.kind = fault::FaultKind::kTransferFailure;
  rule.probability = 0.25;
  rule.after = 3;
  rule.count = 7;
  plan.rules.push_back(rule);
  rule.site = "ocl.*";
  rule.kind = fault::FaultKind::kSpuriousLatency;
  rule.probability = 1.0;
  rule.after = 0;
  rule.count = std::numeric_limits<std::uint64_t>::max();
  rule.latency_s = 0.125;
  plan.rules.push_back(rule);

  fault::FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(fault::parse_plan(fault::to_string(plan), parsed, error))
      << error;
  EXPECT_EQ(parsed, plan);
}

TEST(FaultPlan, ParseAcceptsCommentsAndLatencyMs) {
  const std::string text =
      "# chaos plan\n"
      "seed 9\n"
      "\n"
      "rule site=ocl.kernel kind=kernel_timeout latency_ms=2 count=inf\n";
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::parse_plan(text, plan, error)) << error;
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_EQ(plan.rules[0].kind, fault::FaultKind::kKernelTimeout);
  EXPECT_DOUBLE_EQ(plan.rules[0].latency_s, 0.002);
  EXPECT_EQ(plan.rules[0].count, std::numeric_limits<std::uint64_t>::max());
}

TEST(FaultPlan, ParseRejectsMalformedLines) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::parse_plan("bogus line\n", plan, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      fault::parse_plan("rule site=x kind=not_a_kind\n", plan, error));
  EXPECT_FALSE(fault::parse_plan("rule kind=stream_close\n", plan, error))
      << "a rule without a site must be rejected";
  // Only a trailing '*' is a wildcard; a mid-site one would never fire.
  EXPECT_FALSE(fault::parse_plan(
      "seed 1\nrule site=shard.*.exchange kind=transfer_failure\n", plan,
      error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("site=shard.*.exchange"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// injector determinism

fault::FaultPlan one_rule_plan(std::string site, fault::FaultKind kind,
                               double probability = 1.0,
                               std::uint64_t seed = 1) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::FaultRule rule;
  rule.site = std::move(site);
  rule.kind = kind;
  rule.probability = probability;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const fault::FaultPlan plan = one_rule_plan(
      "site.a", fault::FaultKind::kTransferFailure, 0.37, /*seed=*/1234);
  const auto run = [&plan] {
    fault::FaultInjector injector(plan);
    for (int i = 0; i < 500; ++i) {
      (void)injector.fire("site.a");
    }
    return injector.report();
  };
  const fault::FaultReport a = run();
  const fault::FaultReport b = run();
  EXPECT_GT(a.injected, 0u);
  EXPECT_LT(a.injected, 500u);  // p = 0.37 must not fire every time
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.schedule(), b.schedule());
}

TEST(FaultInjector, AfterAndCountBoundTheWindow) {
  fault::FaultPlan plan =
      one_rule_plan("w", fault::FaultKind::kTransferFailure);
  plan.rules[0].after = 2;
  plan.rules[0].count = 3;
  fault::FaultInjector injector(plan);
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(injector.fire("w").has_value());
  }
  const std::vector<bool> expected = {false, false, true, true, true,
                                      false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(injector.report().schedule(), "0:[2,3,4]");
}

TEST(FaultInjector, WildcardMatchesPrefixOnly) {
  const fault::FaultPlan plan =
      one_rule_plan("ocl.*", fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  EXPECT_TRUE(injector.fire("ocl.enqueue_write").has_value());
  EXPECT_TRUE(injector.fire("ocl.kernel").has_value());
  EXPECT_FALSE(injector.fire("serve.solve.fused").has_value());
  EXPECT_FALSE(injector.fire("xfer.schedule").has_value());
  const fault::FaultReport report = injector.report();
  EXPECT_EQ(report.checks, 4u);
  EXPECT_EQ(report.injected, 2u);
  EXPECT_EQ(report.by_site.at("ocl.enqueue_write"), 1u);
  EXPECT_EQ(report.by_kind.at("transfer_failure"), 2u);
}

TEST(FaultInjector, DisarmedHookIsInert) {
  ASSERT_EQ(fault::armed(), nullptr);
  EXPECT_FALSE(fault::check("anything").has_value());
  fault::throw_if("anything");  // must not throw when disarmed
}

TEST(FaultInjector, ScopedArmNestsAndRestores) {
  fault::FaultInjector outer(
      one_rule_plan("a", fault::FaultKind::kStreamClose));
  fault::FaultInjector inner(
      one_rule_plan("b", fault::FaultKind::kStreamClose));
  ASSERT_EQ(fault::armed(), nullptr);
  {
    fault::ScopedArm arm_outer(outer);
    EXPECT_EQ(fault::armed(), &outer);
    {
      fault::ScopedArm arm_inner(inner);
      EXPECT_EQ(fault::armed(), &inner);
    }
    EXPECT_EQ(fault::armed(), &outer);
  }
  EXPECT_EQ(fault::armed(), nullptr);
}

// ---------------------------------------------------------------------------
// hook sites: dataflow streams

TEST(FaultSites, StreamCloseUnderProducerFollowsCloseContract) {
  fault::FaultPlan plan =
      one_rule_plan("dataflow.stream.push", fault::FaultKind::kStreamClose);
  plan.rules[0].count = 1;
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  dataflow::Stream<int> stream({.capacity = 4, .name = "fault.test"});
  EXPECT_FALSE(stream.push(1));  // injected close: value discarded
  EXPECT_TRUE(stream.closed());
  EXPECT_FALSE(stream.push(2));  // closed stream keeps refusing, no throw
  EXPECT_EQ(stream.pop(), std::nullopt);
}

TEST(FaultSites, StreamCloseUnderConsumerDrainsThenEnds) {
  dataflow::Stream<int> stream({.capacity = 4, .name = "fault.test"});
  ASSERT_TRUE(stream.push(7));
  ASSERT_TRUE(stream.push(8));

  fault::FaultPlan plan =
      one_rule_plan("dataflow.stream.pop", fault::FaultKind::kStreamClose);
  plan.rules[0].count = 1;
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);
  EXPECT_EQ(stream.pop(), 7);  // close fires, accepted values still drain
  EXPECT_TRUE(stream.closed());
  EXPECT_EQ(stream.pop(), 8);
  EXPECT_EQ(stream.pop(), std::nullopt);
}

TEST(FaultSites, StreamStallDelaysButDelivers) {
  fault::FaultPlan plan =
      one_rule_plan("dataflow.stream.push", fault::FaultKind::kStreamStall);
  plan.rules[0].count = 1;
  plan.rules[0].latency_s = 0.005;
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  dataflow::Stream<int> stream({.capacity = 4, .name = "fault.test"});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(stream.push(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 5ms);
  EXPECT_EQ(stream.pop(), 1);
}

// ---------------------------------------------------------------------------
// hook sites: simulated OpenCL runtime + transfer scheduler

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

api::SolveRequest small_request(api::BackendSpec backend = api::Backend::kFused,
                                std::uint64_t seed = 7) {
  const grid::GridDims dims{16, 16, 16};
  api::SolverOptions options;
  options.backend = std::move(backend);
  options.kernel.chunk_y = 8;
  return api::make_request(shared_state(dims, seed),
                           shared_coefficients(dims), options);
}

api::SolveRequest host_request(std::uint64_t seed = 7) {
  api::HostOptions host;
  host.x_chunks = 2;
  return small_request(api::BackendSpec(host), seed);
}

TEST(FaultSites, OclTransferFailureSurfacesAsBackendFault) {
  for (const char* site : {"ocl.enqueue_write", "ocl.enqueue_read"}) {
    fault::FaultPlan plan =
        one_rule_plan(site, fault::FaultKind::kTransferFailure);
    plan.rules[0].count = 1;
    fault::FaultInjector injector(plan);
    fault::ScopedArm arm(injector);

    const api::SolveRequest request = host_request();
    const api::SolveResult result =
        api::Solver(request.options).solve(request);
    EXPECT_EQ(result.error, api::SolveError::kBackendFault) << site;
    EXPECT_NE(result.message.find("transfer_failure"), std::string::npos)
        << result.message;
    EXPECT_EQ(result.terms, nullptr);
  }
}

TEST(FaultSites, OclKernelTimeoutSurfacesAsBackendFault) {
  fault::FaultPlan plan =
      one_rule_plan("ocl.kernel", fault::FaultKind::kKernelTimeout);
  plan.rules[0].count = 1;
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  const api::SolveRequest request = host_request();
  const api::SolveResult result =
      api::Solver(request.options).solve(request);
  EXPECT_EQ(result.error, api::SolveError::kBackendFault);
  EXPECT_NE(result.message.find("kernel_timeout"), std::string::npos);
}

TEST(FaultSites, OclAllocFailureSurfacesAsBackendFault) {
  fault::FaultPlan plan =
      one_rule_plan("ocl.alloc", fault::FaultKind::kAllocFailure);
  plan.rules[0].count = 1;
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  const api::SolveRequest request = host_request();
  const api::SolveResult result =
      api::Solver(request.options).solve(request);
  EXPECT_EQ(result.error, api::SolveError::kBackendFault);
  EXPECT_NE(result.message.find("alloc_failure"), std::string::npos);
}

TEST(FaultSites, XferSpuriousLatencyStretchesTheTimeline) {
  fault::FaultPlan plan =
      one_rule_plan("xfer.schedule", fault::FaultKind::kSpuriousLatency);
  plan.rules[0].count = 1;
  plan.rules[0].latency_s = 0.5;
  fault::FaultInjector injector(plan);

  xfer::Command command;
  command.label = "write";
  command.engine = xfer::Engine::kHostToDevice;
  command.duration_s = 1.0;

  xfer::EventScheduler baseline;
  baseline.add(command);
  ASSERT_DOUBLE_EQ(baseline.run().makespan_s, 1.0);

  fault::ScopedArm arm(injector);
  xfer::EventScheduler faulted;
  faulted.add(command);
  EXPECT_DOUBLE_EQ(faulted.run().makespan_s, 1.5);
}

// ---------------------------------------------------------------------------
// circuit breaker state machine

TEST(CircuitBreaker, OpensAfterThresholdAndCoolsDownToHalfOpen) {
  fault::BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown = 5ms;
  fault::CircuitBreaker breaker(policy);

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), fault::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow()) << "open breaker must short-circuit";

  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(breaker.allow()) << "cooldown elapsed: half-open probe";
  EXPECT_EQ(breaker.state(), fault::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow()) << "probe budget (1) already in flight";

  breaker.record_success();
  EXPECT_EQ(breaker.state(), fault::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCooldown) {
  fault::BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.cooldown = 5ms;
  fault::CircuitBreaker breaker(policy);

  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), fault::CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(10ms);
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // the probe fails
  EXPECT_EQ(breaker.state(), fault::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  fault::BreakerPolicy policy;
  policy.failure_threshold = 2;
  fault::CircuitBreaker breaker(policy);
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), fault::CircuitBreaker::State::kClosed)
      << "non-consecutive failures must not trip the breaker";
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  fault::BreakerPolicy policy;
  policy.failure_threshold = 0;
  fault::CircuitBreaker breaker(policy);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.opens(), 0u);
}

// ---------------------------------------------------------------------------
// serve-layer resilience ladder

serve::ServiceConfig resilient_config() {
  serve::ServiceConfig config;
  config.workers_per_backend = 1;
  config.result_cache = false;
  config.retry.initial_backoff = std::chrono::microseconds(100);
  config.retry.jitter = 0.0;
  return config;
}

TEST(ServeResilience, TransientFaultRecoversViaRetry) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  plan.rules[0].count = 2;  // first two attempts fault, the third runs
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 3;
  serve::SolveService service(config);
  const api::SolveResult result = service.submit(small_request()).wait();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.backend, api::Backend::kFused);
  EXPECT_EQ(result.attempts, 3u);

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.backend_faults, 2u);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.retry_recovered, 1u);
  EXPECT_EQ(report.failovers, 0u);
}

TEST(ServeResilience, ExhaustedRetriesSurfaceBackendFaultWithoutFailover) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 3;
  config.failover = false;
  serve::SolveService service(config);
  const api::SolveResult result = service.submit(small_request()).wait();
  EXPECT_EQ(result.error, api::SolveError::kBackendFault);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(service.report().backend_faults, 3u);
  EXPECT_EQ(service.report().retries, 2u);
}

TEST(ServeResilience, FailoverServesDegradedButCorrectTerms) {
  const api::SolveRequest request = small_request();
  // What the CPU failover backend would compute directly.
  api::SolverOptions cpu_options = request.options;
  cpu_options.backend = api::Backend::kCpuBaseline;
  const api::SolveResult expected =
      api::Solver(cpu_options).solve(request);
  ASSERT_TRUE(expected.ok());

  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 2;
  serve::SolveService service(config);
  const api::SolveResult result = service.submit(request).wait();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.backend, api::Backend::kCpuBaseline);
  EXPECT_TRUE(
      grid::compare_interior(expected.terms->su, result.terms->su).bit_equal());
  EXPECT_TRUE(
      grid::compare_interior(expected.terms->sv, result.terms->sv).bit_equal());
  EXPECT_TRUE(
      grid::compare_interior(expected.terms->sw, result.terms->sw).bit_equal());

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.failovers, 1u);
  EXPECT_EQ(report.backend_faults, 2u);
}

TEST(ServeResilience, DegradedResultsAreNotCached) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.result_cache = true;
  config.retry.max_attempts = 1;
  serve::SolveService service(config);
  const api::SolveResult first = service.submit(small_request()).wait();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.degraded);
  const api::SolveResult second = service.submit(small_request()).wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.degraded);
  EXPECT_FALSE(second.cached)
      << "a degraded failover answer must not be memoised";
  EXPECT_EQ(service.report().result_cache_hits, 0u);
}

TEST(ServeResilience, BreakerOpensThenShortCircuitsToFailover) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 1;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown = std::chrono::seconds(30);  // stays open
  serve::SolveService service(config);

  // Two faulted requests trip the fused breaker...
  for (int i = 0; i < 2; ++i) {
    const api::SolveResult result = service.submit(small_request()).wait();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.degraded);
  }
  serve::ServiceReport report = service.report();
  EXPECT_EQ(report.breaker_opens, 1u);
  EXPECT_EQ(report.breaker_short_circuits, 0u);

  // ...so the third skips the fused attempt entirely and fails over
  // immediately: the injector sees no further serve.solve.fused injections.
  const std::uint64_t fused_before =
      injector.report().by_site.at("serve.solve.fused");
  const api::SolveResult result = service.submit(small_request()).wait();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(injector.report().by_site.at("serve.solve.fused"), fused_before);
  report = service.report();
  EXPECT_EQ(report.breaker_short_circuits, 1u);
  EXPECT_EQ(report.backend_faults, 2u) << "short-circuit is not a new fault";
}

TEST(ServeResilience, HalfOpenProbeClosesBreakerAfterRecovery) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  plan.rules[0].count = 1;  // only the first attempt faults
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 1;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown = 5ms;
  serve::SolveService service(config);

  const api::SolveResult first = service.submit(small_request()).wait();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.degraded);  // breaker tripped, failover served it
  std::this_thread::sleep_for(10ms);
  const api::SolveResult second = service.submit(small_request()).wait();
  ASSERT_TRUE(second.ok()) << second.message;
  EXPECT_FALSE(second.degraded) << "half-open probe should have recovered";
  EXPECT_EQ(second.backend, api::Backend::kFused);
}

TEST(ServeResilience, DeadlineExpiryDuringRetryFailsFastInsteadOfSleeping) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 10;
  config.retry.initial_backoff = std::chrono::seconds(5);
  config.failover = false;
  serve::SolveService service(config);

  api::SolveRequest request = small_request();
  request.timeout = 100ms;
  const auto start = std::chrono::steady_clock::now();
  api::SolveFuture future = service.submit(request);
  ASSERT_TRUE(future.wait_for(2s)) << "request must not sleep out a 5 s "
                                      "backoff against a 100 ms deadline";
  EXPECT_EQ(future.result().error, api::SolveError::kDeadlineExceeded);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
  EXPECT_EQ(service.report().retries, 0u);
}

// ---------------------------------------------------------------------------
// SolveFuture edge races

TEST(SolveFutureEdges, CancelAfterCompleteIsRefusedAndHarmless) {
  serve::SolveService service;
  api::SolveFuture future = service.submit(small_request());
  const api::SolveResult& result = future.wait();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(future.cancel());
  EXPECT_TRUE(future.ready());
  EXPECT_TRUE(future.result().ok()) << "cancel must not clobber the result";
}

TEST(SolveFutureEdges, WaitAndPollOnAlreadyFailedFuture) {
  serve::SolveService service;
  api::SolveRequest empty;  // no payloads: admission rejects immediately
  api::SolveFuture future = service.submit(std::move(empty));
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.wait().error, api::SolveError::kEmptyGrid);
  EXPECT_EQ(future.result().error, api::SolveError::kEmptyGrid);
  EXPECT_TRUE(future.wait_for(0ms));
  EXPECT_FALSE(future.cancel());
}

TEST(SolveFutureEdges, WaitForOnFaultedFutureCompletesOnce) {
  fault::FaultPlan plan = one_rule_plan("serve.solve.fused",
                                        fault::FaultKind::kTransferFailure);
  fault::FaultInjector injector(plan);
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config = resilient_config();
  config.retry.max_attempts = 1;
  config.failover = false;
  serve::SolveService service(config);
  api::SolveFuture future = service.submit(small_request());
  ASSERT_TRUE(future.wait_for(10s));
  EXPECT_EQ(future.result().error, api::SolveError::kBackendFault);
  // Waiting again on a completed-with-error future returns the same result.
  EXPECT_EQ(future.wait().error, api::SolveError::kBackendFault);
  EXPECT_FALSE(future.cancel());
}

}  // namespace
