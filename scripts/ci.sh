#!/usr/bin/env bash
# The CI entry point: build, static analysis, tests, sanitizer job.
#
# Stages (fail-fast, in order):
#   1. configure + build       (build/)
#   2. lint                    scripts/lint.sh — pwlint over every
#                              registered pipeline + clang-tidy when
#                              installed; LINT_pipelines.json validated by
#                              scripts/check_bench_json.py
#   3. tests                   ctest over build/; its `stencil` label
#                              holds every pw::stencil registry kernel on
#                              every engine and backend bit-exact against
#                              its scalar reference (StencilFuzz.*,
#                              Stencil{Diffusion,Poisson}.AllBackends*),
#                              and stages 4, 4b and 5 rerun that label
#                              under ASan+UBSan, UBSan and TSan
#   3b. stream bench gate      bench/micro_streams relay -> BENCH_streams
#                              .json, validated + budget-gated (SPSC >= 5x
#                              faster than the mutex referee) by
#                              scripts/check_bench_json.py
#   3b3. scale-out bench gate  bench/future_scaleout -> BENCH_scaleout.json:
#                              measured weak/strong scaling of real sharded
#                              solves over simulated devices (pw::shard);
#                              scripts/check_bench_json.py gates
#                              scaleout.bench.bit_exact at 1.0 and the
#                              4-shard weak-scaling efficiency at >= 0.5
#   3b4. serve storm gate      bench/serve_storm -> BENCH_storm.json: the
#                              1e5-request open-loop multi-tenant QoS storm
#                              (clean + fault-plan-armed), with
#                              scripts/check_bench_json.py gating the
#                              storm.bench.* SLO gauges — p99/p999 latency,
#                              shed_fairness at 1.0 (zero unfair sheds) and
#                              cache_within_cap at 1.0 (tiered-cache peak
#                              bytes never exceeded the byte cap)
#   3c. model checker          ctest -L check (the pw::check unit battery)
#                              plus the pwcheck scenario suite — exhaustive
#                              bounded-preemption exploration of the ring
#                              protocols, with the CHECK_scenarios.json
#                              artefact validated like the bench snapshots.
#                              Required: a schedule the checker can reach
#                              is a schedule production can reach.
#   4. sanitizers              ASan+UBSan build (build-asan/) + full ctest
#                              (which includes the `fault`-labelled chaos
#                              battery, the `shard`-labelled differential
#                              + kill-a-shard suite, and the `qos`-labelled
#                              scheduler/tiered-cache/traffic battery).
#                              Skipped with PW_CI_SKIP_SANITIZERS=1 for
#                              quick local iterations.
#   4b. ubsan: streams + fault UBSan-only build (build-ubsan/) + ctest -L
#        + stencil + check     streams/fault/stencil/check/shard — unlike 4,
#        + shard               no ASan shadow memory, so the lock-free fast
#                              paths run at near-production interleaving
#                              density while UBSan watches for the UB
#                              (misaligned loads, overflow) that
#                              memory-ordering bugs tend to surface as. The
#                              shard label adds the sharded solver's halo
#                              pull lists (element offsets, negative on the
#                              west and south faces, applied concurrently by
#                              every worker), the decomposition, fuzz and
#                              integration suites that shard, and two
#                              pwserve --shards=4 replays (one kills a
#                              device). Also skipped with
#                              PW_CI_SKIP_SANITIZERS=1.
#   5. tsan: serve + fault     TSan build (build-tsan/) + ctest -R '^Serve',
#        + streams + stencil   ctest -L fault, -L streams, -L stencil,
#        + shard + qos         -L shard and -L qos — the serving layer is the repo's
#                              most thread-heavy subsystem, the fault
#                              battery deliberately storms it with mid-solve
#                              failures, the streams label selects the
#                              lock-free ring stress suite
#                              (test_stream_fabric), whose memory-ordering
#                              argument is only as good as its TSan run,
#                              the stencil label drives the threaded /
#                              multi-instance stencil engines plus the
#                              mixed-kernel SolveService traffic and the
#                              shift-buffer ring suites (its in-place
#                              windows are pointer arithmetic with
#                              negative offsets, read by concurrent
#                              instances) and the host-driver suite
#                              (test_ocl: slab transfers in place in the
#                              caller's fields), and the
#                              shard label runs one resident worker per
#                              simulated device (including the chaos test
#                              that kills a whole shard mid-solve, the
#                              decomposition, fuzz and integration suites
#                              that shard over up to 144 devices, and the
#                              pwserve replays through a sharded
#                              SolveService), and the
#                              qos label races the WFQ/EDF schedulers, the
#                              tiered result cache and the quota-shed path
#                              under concurrent submitters. Also skipped
#                              with PW_CI_SKIP_SANITIZERS=1.
#
# A full-suite TSan run is not part of the default gate (it roughly
# 10x-es suite runtime); run it on demand:
#   cmake -B build-tsan -DPW_SANITIZE=thread && cmake --build build-tsan
#   ctest --test-dir build-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==== ci: configure + build ===="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "$JOBS"

echo "==== ci: lint ===="
scripts/lint.sh build

echo "==== ci: tests ===="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==== ci: stream fabric bench gate ===="
build/bench/micro_streams --json=BENCH_streams.json
python3 scripts/check_bench_json.py BENCH_streams.json

echo "==== ci: scale-out bench gate ===="
build/bench/future_scaleout --json=BENCH_scaleout.json
python3 scripts/check_bench_json.py BENCH_scaleout.json

echo "==== ci: serve storm gate ===="
build/bench/serve_storm --json=BENCH_storm.json
python3 scripts/check_bench_json.py BENCH_storm.json

echo "==== ci: model checker (pw::check) ===="
ctest --test-dir build --output-on-failure -j "$JOBS" -L check
build/tools/pwcheck --json=CHECK_scenarios.json
python3 scripts/check_bench_json.py CHECK_scenarios.json

if [[ "${PW_CI_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "==== ci: sanitizers skipped (PW_CI_SKIP_SANITIZERS=1) ===="
  exit 0
fi

echo "==== ci: ASan+UBSan build + tests ===="
cmake -B build-asan -S . -DPW_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
# The qos battery again, alone: the schedulers and tiered cache are the
# newest allocation-heavy paths, and a focused rerun keeps their ASan
# signal legible when the full-suite log above is noisy.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L qos

echo "==== ci: UBSan-only build + streams + fault battery + checker + shard ===="
cmake -B build-ubsan -S . -DPW_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ubsan -j "$JOBS" --target \
  test_stream_fabric test_fault test_fault_chaos \
  test_backend_differential test_stencil test_check \
  test_shift_buffer test_kernel_equivalence test_precision test_vectorized \
  test_ocl test_shard test_decomp test_fuzz_more test_integration pwserve
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L streams
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L fault
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L stencil
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L check
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L shard

echo "==== ci: TSan build + serve suites + fault battery + ring stress ===="
cmake -B build-tsan -S . -DPW_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target \
  test_serve test_serve_stress test_stream_fabric \
  test_fault test_fault_chaos test_backend_differential test_stencil \
  test_shard test_decomp test_fuzz_more test_integration test_qos \
  test_shift_buffer test_kernel_equivalence test_precision test_vectorized \
  test_ocl pwserve
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R '^Serve'
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L fault
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L streams
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L stencil
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L shard
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L qos

echo "==== ci: all stages passed ===="
