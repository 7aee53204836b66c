// Concurrency stress for the serving layer. These tests exist to run under
// PW_SANITIZE=thread (scripts/ci.sh builds build-tsan and runs every
// Serve* suite there): many submitter threads against one service, shared
// external metrics registries, concurrent plan-cache lookups, and the raw
// pool primitive the service is built from.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"
#include "pw/util/thread_pool.hpp"

namespace {

using namespace pw;

TEST(ServeStress, ConcurrentSubmittersMixedBackends) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 8;

  obs::MetricsRegistry registry;  // shared sink: worker + service writes race
  serve::ServiceConfig config;
  config.metrics = &registry;
  config.queue_capacity = 8;
  config.block_when_full = true;  // flow control, no load shedding
  config.workers_per_backend = 2;
  serve::SolveService service(config);

  serve::TraceSpec spec;
  spec.requests = kThreads * kPerThread;
  spec.shapes = {{16, 16, 16}, {12, 20, 8}};
  spec.backends = {api::Backend::kReference, api::Backend::kFused,
                   api::Backend::kCpuBaseline};
  spec.repeat_fraction = 0.5;
  const auto trace = serve::make_trace(spec);

  std::atomic<std::size_t> ok_count{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // By value: the temporary future backing wait()'s reference dies
        // at the end of the full expression.
        const api::SolveResult result =
            service.submit(trace[t * kPerThread + i]).wait();
        if (result.ok()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }

  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, kThreads * kPerThread);
  EXPECT_EQ(report.completed, kThreads * kPerThread);
  EXPECT_EQ(report.computed + report.result_cache_hits,
            kThreads * kPerThread);
  EXPECT_EQ(report.rejected_backpressure, 0u);  // blocking mode sheds nothing
  EXPECT_EQ(registry.counter("serve.submitted"), kThreads * kPerThread);
}

TEST(ServeStress, ShutdownRacesInFlightWork) {
  for (int round = 0; round < 4; ++round) {
    serve::ServiceConfig config;
    config.workers_per_backend = 2;
    auto service = std::make_unique<serve::SolveService>(config);

    serve::TraceSpec spec;
    spec.requests = 8;
    spec.seed = 100 + round;
    auto futures = service->submit_all(serve::make_trace(spec));

    // Abandoning shutdown races the dispatcher and the workers; every
    // future must still complete (ok, or typed kServiceStopped).
    service->shutdown(/*drain_queued=*/false);
    for (auto& f : futures) {
      const auto& result = f.wait();
      EXPECT_TRUE(result.ok() ||
                  result.error == api::SolveError::kServiceStopped)
          << api::describe(result.error);
    }
  }
}

TEST(ServeStress, PlanCacheConcurrentLookups) {
  serve::PlanCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 64;

  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        const grid::GridDims dims{8 + (i % 3) * 4, 16, 8};
        api::SolverOptions options;
        options.backend = (t % 2 == 0)
                              ? api::BackendSpec(api::Backend::kFused)
                              : api::BackendSpec(api::MultiKernelOptions{
                                    .kernels = 2});
        options.kernel.chunk_y = 8;
        const auto plan = cache.lookup(dims, options);
        if (plan == nullptr || !plan->admitted) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(cache.size(), 6u);  // 3 shapes x 2 backends
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kIterations);
}

TEST(ServeStress, FingerprintMemoStaysHardCappedUnderLivePayloads) {
  // The pre-QoS memo grew without bound while payloads stayed alive: a
  // long-lived submitter holding request objects leaked one entry per
  // distinct payload forever. The cap must hold even though every payload
  // here is still live, and eviction must never change a fingerprint.
  serve::FingerprintCache memo(32);

  serve::TraceSpec spec;
  spec.requests = 256;
  spec.repeat_fraction = 0.0;  // 256 distinct payloads, all kept alive
  spec.shapes = {{8, 8, 8}};
  const auto trace = serve::make_trace(spec);  // owns every payload

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> over_cap{false};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < trace.size(); i += kThreads) {
        (void)memo.fingerprint(trace[i]);
        if (memo.size() > memo.capacity()) {
          over_cap.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(over_cap.load());
  EXPECT_LE(memo.size(), memo.capacity());
  // Evicted entries recompute to the same content hash.
  for (std::size_t i = 0; i < trace.size(); i += 37) {
    EXPECT_EQ(memo.fingerprint(trace[i]),
              serve::request_fingerprint(trace[i]))
        << i;
  }
}

TEST(ServeStress, ResultCachePeakBytesNeverExceedsTheCap) {
  // Distinct payloads force continual insertions; the tiered cache's byte
  // cap must hold at the peak (evict-before-insert), not just at rest —
  // the pre-QoS unbounded result map would fail this immediately. Sharded
  // answers go through the same cache.
  serve::TraceSpec spec;
  spec.requests = 48;
  spec.repeat_fraction = 0.0;
  spec.shapes = {{12, 12, 12}};
  spec.backends = {api::Backend::kFused};
  const auto trace = serve::make_trace(spec);

  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded over 4 devices" : "single device");
    serve::ServiceConfig config;
    config.workers_per_backend = 2;
    config.result_cache_capacity = 64;
    config.result_cache_bytes = 256u << 10;  // ~3 resident 12^3 results
    if (sharded) {
      config.shard.emplace();
      config.shard->devices = 4;
    }
    serve::SolveService service(config);

    constexpr std::size_t kThreads = 4;
    std::atomic<std::size_t> ok_count{0};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = t; i < trace.size(); i += kThreads) {
          if (service.submit(trace[i]).wait().ok()) {
            ok_count.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : submitters) {
      thread.join();
    }
    EXPECT_EQ(ok_count.load(), trace.size());

    const auto stats = service.cache_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->byte_cap, config.result_cache_bytes);
    EXPECT_LE(stats->peak_bytes, stats->byte_cap);
    EXPECT_LE(stats->bytes, stats->byte_cap);
    EXPECT_GT(stats->evictions, 0u);  // the cap actually bit
    const serve::ServiceReport report = service.report();
    EXPECT_LE(report.cache_peak_bytes, report.cache_byte_cap);
  }
}

TEST(ServeStress, ThreadPoolSubmitFromManyThreads) {
  util::ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasks = 128;

  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kTasks; ++i) {
        pool.submit([&executed] { executed.fetch_add(1); });
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kTasks);
}

}  // namespace
