#!/usr/bin/env bash
# Builds everything, runs the full test suite and every bench binary, and
# leaves the transcript in test_output.txt / bench_output.txt at the repo
# root — the one-command reproduction of the paper's evaluation.
#
# The instrumented benches additionally dump machine-readable metrics
# registries (BENCH_table1.json, BENCH_stencils.json, BENCH_fig6.json,
# BENCH_micro_shift_buffer.json, BENCH_fault.json, BENCH_streams.json,
# BENCH_scaleout.json, BENCH_storm.json); the run fails if any artefact is
# missing or malformed (validated by
# scripts/check_bench_json.py, which also gates the disarmed fault-hook
# overhead reported in BENCH_fault.json at < 1%, the stream-fabric handoff
# budgets in BENCH_streams.json, including the >= 5x SPSC-vs-mutex floor,
# the sharded scale-out measurements in BENCH_scaleout.json —
# bit-exactness at 1.0 and the 4-shard weak-scaling efficiency floor — and
# the QoS storm SLOs in BENCH_storm.json: >= 1e5 offered requests, p99 /
# p999 served-latency ceilings, shed_fairness at 1.0 and the tiered-cache
# peak-bytes-within-cap invariant at 1.0).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

# Static verification first: every registered pipeline must pass the
# pw::lint dataflow checks before anything simulates or benches.
build/tools/pwlint --json=LINT_pipelines.json
python3 scripts/check_bench_json.py LINT_pipelines.json

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  if [[ -x "$b" && -f "$b" ]]; then
    echo "==== $(basename "$b") ====" | tee -a bench_output.txt
    case "$(basename "$b")" in
      micro_streams) "$b" ;;  # hand-rolled main, no google-benchmark flags
      micro_*) "$b" --benchmark_min_time=0.05 ;;
      *) "$b" ;;
    esac 2>&1 | tee -a bench_output.txt
    echo | tee -a bench_output.txt
  fi
done

# Registry-backed JSON artefacts: every instrumented bench must have left a
# valid snapshot behind, or the reproduction run fails.
python3 scripts/check_bench_json.py BENCH_table1.json
python3 scripts/check_bench_json.py BENCH_stencils.json
python3 scripts/check_bench_json.py --require-spans BENCH_fig6.json
python3 scripts/check_bench_json.py BENCH_micro_shift_buffer.json
python3 scripts/check_bench_json.py BENCH_fault.json
python3 scripts/check_bench_json.py BENCH_streams.json
python3 scripts/check_bench_json.py BENCH_scaleout.json
python3 scripts/check_bench_json.py BENCH_storm.json

echo "done: test_output.txt, bench_output.txt, BENCH_*.json"
