// Chaos battery: replay deterministic request traces through a SolveService
// while a seeded FaultPlan breaks backends underneath it. The properties
// under test are the resilience layer's contract, not any single fault:
//
//   1. a permanently failing FPGA backend degrades every request to the CPU
//      failover with zero hung futures and numerically correct terms;
//   2. the same seed produces byte-identical fault schedules and identical
//      final service counters across runs;
//   3. probabilistic fault storms under full worker concurrency never hang,
//      leak (ASan) or race (TSan) — every future completes with ok or a
//      typed error;
//   4. a failover answer is never cached, and never flagged or counted as
//      a cache hit, even when coalesced requests share it.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "pw/fault/injector.hpp"
#include "pw/grid/compare.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"

namespace {

using namespace pw;
using namespace std::chrono_literals;

fault::FaultPlan plan_from(const std::string& text) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(fault::parse_plan(text, plan, error)) << error;
  return plan;
}

TEST(FaultChaos, PermanentBackendFailureFailsOverEveryRequest) {
  serve::TraceSpec spec;
  spec.requests = 24;
  spec.backends = {api::Backend::kFused};
  spec.shapes = {{16, 16, 16}, {24, 16, 8}};
  spec.repeat_fraction = 0.0;
  spec.seed = 11;
  std::vector<api::SolveRequest> requests = serve::make_trace(spec);

  // Direct CPU-baseline answers for every request, before arming: the
  // degraded results must match these exactly (double datapath, bit-equal).
  std::vector<api::SolveResult> expected;
  expected.reserve(requests.size());
  for (const api::SolveRequest& request : requests) {
    api::SolverOptions options = request.options;
    options.backend = api::Backend::kCpuBaseline;
    expected.push_back(api::Solver(options).solve(request));
    ASSERT_TRUE(expected.back().ok()) << expected.back().message;
  }

  fault::FaultInjector injector(plan_from(
      "seed 3\n"
      "rule site=serve.solve.fused kind=transfer_failure count=inf\n"));
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config;
  config.result_cache = false;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff = std::chrono::microseconds(50);
  serve::SolveService service(config);
  std::vector<api::SolveFuture> futures = service.submit_all(requests);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].wait_for(60s)) << "future " << i << " hung";
    const api::SolveResult& result = futures[i].result();
    ASSERT_TRUE(result.ok()) << i << ": " << result.message;
    EXPECT_TRUE(result.degraded) << i;
    EXPECT_EQ(result.backend, api::Backend::kCpuBaseline) << i;
    EXPECT_TRUE(grid::compare_interior(expected[i].terms->su,
                                       result.terms->su)
                    .bit_equal())
        << i;
    EXPECT_TRUE(grid::compare_interior(expected[i].terms->sw,
                                       result.terms->sw)
                    .bit_equal())
        << i;
  }
  service.shutdown();

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, spec.requests);
  EXPECT_EQ(report.completed, spec.requests);
  EXPECT_EQ(report.failovers, spec.requests);
  EXPECT_GT(report.backend_faults, 0u);
}

TEST(FaultChaos, SameSeedSameScheduleAndSameCounters) {
  const char* plan_text =
      "seed 77\n"
      "rule site=serve.solve.* kind=transfer_failure prob=0.4 count=inf\n";

  struct RunOutcome {
    std::string schedule;
    std::uint64_t completed = 0;
    std::uint64_t computed = 0;
    std::uint64_t backend_faults = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_recovered = 0;
    std::uint64_t failovers = 0;
    std::vector<api::SolveError> errors;
    bool operator==(const RunOutcome&) const = default;
  };

  const auto run = [&] {
    serve::TraceSpec spec;
    spec.requests = 16;
    spec.backends = {api::Backend::kFused, api::Backend::kReference};
    spec.repeat_fraction = 0.0;
    spec.seed = 5;
    std::vector<api::SolveRequest> requests = serve::make_trace(spec);

    fault::FaultInjector injector(plan_from(plan_text));
    fault::ScopedArm arm(injector);

    // One worker, no batching fan-out, no cache, no jitter: the attempt
    // order is the submission order, so the injector's per-rule hit
    // sequence — and with it every counter — is fully determined.
    serve::ServiceConfig config;
    config.workers_per_backend = 1;
    config.max_batch = 1;
    config.max_in_flight = 1;
    config.result_cache = false;
    config.retry.max_attempts = 3;
    config.retry.initial_backoff = std::chrono::microseconds(10);
    config.retry.jitter = 0.0;
    // The breaker's cooldown is wall-clock-driven, which would leak real
    // time into the schedule; determinism is asserted with it disabled.
    config.breaker.failure_threshold = 0;
    serve::SolveService service(config);

    RunOutcome outcome;
    // Sequential submit+wait: one in-flight request at a time, so the
    // fused/reference interleaving at the injector is the trace order.
    for (api::SolveRequest& request : requests) {
      const api::SolveResult result = service.submit(request).wait();
      outcome.errors.push_back(result.error);
    }
    service.shutdown();
    const serve::ServiceReport report = service.report();
    outcome.schedule = injector.report().schedule();
    outcome.completed = report.completed;
    outcome.computed = report.computed;
    outcome.backend_faults = report.backend_faults;
    outcome.retries = report.retries;
    outcome.retry_recovered = report.retry_recovered;
    outcome.failovers = report.failovers;
    return outcome;
  };

  const RunOutcome first = run();
  const RunOutcome second = run();
  EXPECT_GT(first.backend_faults, 0u) << "the storm must actually bite";
  EXPECT_EQ(first.schedule, second.schedule)
      << "same seed must give a byte-identical fault schedule";
  EXPECT_TRUE(first == second);
}

TEST(FaultChaos, ConcurrentFaultStormNeverHangsOrCorrupts) {
  serve::TraceSpec spec;
  spec.requests = 48;
  spec.backends = {api::Backend::kFused, api::Backend::kCpuBaseline,
                   api::Backend::kReference};
  spec.repeat_fraction = 0.25;
  spec.seed = 23;
  std::vector<api::SolveRequest> requests = serve::make_trace(spec);

  // Faults on every serve-level site (the failover backend included) plus
  // stream stalls inside the fused datapath: the worst realistic storm.
  fault::FaultInjector injector(plan_from(
      "seed 19\n"
      "rule site=serve.solve.* kind=transfer_failure prob=0.3 count=inf\n"
      "rule site=dataflow.stream.push kind=stream_stall prob=0.0001 "
      "latency_ms=1 count=8\n"));
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config;
  config.retry.max_attempts = 2;
  config.retry.initial_backoff = std::chrono::microseconds(50);
  config.breaker.cooldown = 1ms;
  serve::SolveService service(config);
  std::vector<api::SolveFuture> futures = service.submit_all(requests);

  std::size_t ok = 0, degraded = 0, faulted = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].wait_for(120s)) << "future " << i << " hung";
    const api::SolveResult& result = futures[i].result();
    if (result.ok()) {
      ++ok;
      degraded += result.degraded ? 1 : 0;
      ASSERT_NE(result.terms, nullptr) << i;
      // A failover answer is never cached, so it is never flagged as a hit.
      EXPECT_FALSE(result.degraded && result.cached) << i;
    } else {
      // The only typed error a fault storm may surface on deadline-free
      // requests: both the primary and the failover faulted.
      EXPECT_EQ(result.error, api::SolveError::kBackendFault)
          << i << ": " << result.message;
      ++faulted;
    }
  }
  service.shutdown();
  EXPECT_EQ(ok + faulted, spec.requests);
  EXPECT_GT(ok, 0u);

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, spec.requests);
  EXPECT_GT(report.backend_faults, 0u);
  EXPECT_EQ(report.completed, ok);
  EXPECT_EQ(report.failovers, degraded);
}

TEST(FaultChaos, FailoverAnswerSharedWithACoalescedRequestIsNotAHit) {
  // Two identical requests on two workers: one claims the fingerprint and
  // fails over (its primary always faults, and the failover attempt is
  // slowed), the other coalesces onto that solve. Both get the degraded
  // answer; nothing was cached, so neither is flagged or counted a hit.
  fault::FaultInjector injector(plan_from(
      "seed 5\n"
      "rule site=serve.solve.fused kind=transfer_failure count=inf\n"
      "rule site=serve.solve.cpu_baseline kind=spurious_latency "
      "latency_ms=100 count=inf\n"));
  fault::ScopedArm arm(injector);

  serve::ServiceConfig config;
  config.workers_per_backend = 2;
  config.max_batch = 1;
  config.retry.max_attempts = 1;
  serve::SolveService service(config);

  serve::TraceSpec spec;
  spec.requests = 1;
  spec.backends = {api::Backend::kFused};
  spec.shapes = {{16, 16, 16}};
  const api::SolveRequest request = serve::make_trace(spec).front();
  std::vector<api::SolveFuture> futures =
      service.submit_all({request, request});
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].wait_for(60s)) << "future " << i << " hung";
    const api::SolveResult& result = futures[i].result();
    ASSERT_TRUE(result.ok()) << i << ": " << result.message;
    EXPECT_TRUE(result.degraded) << i;
    EXPECT_FALSE(result.cached) << i;
  }
  service.shutdown();
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.result_cache_hits, 0u);
  EXPECT_EQ(report.failovers, 2u);
}

}  // namespace
