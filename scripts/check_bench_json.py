#!/usr/bin/env python3
"""Validates BENCH_*.json artefacts produced by the instrumented benches.

Usage: check_bench_json.py [--require-spans] FILE [FILE ...]

Each file must be a pw::obs registry snapshot: a JSON object with
"counters" / "gauges" / "histograms" objects and a "spans" array, at least
one metric overall, and no non-finite numbers (the exporter writes null for
those, which is accepted). Exits non-zero on the first malformed artefact.

Known gauges additionally carry budget gates: when an artefact reports
"fault.bench.overhead_frac" (bench/fault_overhead's analytic estimate of
the disarmed fault-hook cost as a fraction of per-request service time) it
must be below 1% — the pw::fault hooks are compiled in unconditionally, so
a regression here taxes every solve in the repo.
"""
import json
import math
import sys


def fail(path, message):
    print(f"check_bench_json: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_number(path, name, value):
    if value is None:  # exporter's encoding of NaN/Inf
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, f"{name}: expected a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        fail(path, f"{name}: non-finite value {value!r}")


# Gauge-specific budget gates: name -> (direction, bound, rationale).
# "max" gates fail when value >= bound (a cost that must stay low);
# "min" gates fail when value < bound (a ratio that must stay high).
GAUGE_GATES = {
    "fault.bench.overhead_frac": (
        "max", 0.01,
        "disarmed fault-hook overhead must stay under 1% of the "
        "per-request service time"),
    "streams.bench.handoff_ns": (
        "max", 15.0,
        "per-element SPSC relay handoff (push+pop) must stay in the "
        "low-nanosecond range; ~3.8ns measured on the reference host, "
        "budgeted with ~4x headroom for noisy CI boxes"),
    "streams.bench.mutex_over_spsc_handoff": (
        "min", 5.0,
        "the lock-free SPSC ring must hand off elements at least 5x "
        "faster than the retired mutex+condvar stream (PR 6 acceptance "
        "bar; ~7x measured on the reference host)"),
    "scaleout.bench.bit_exact": (
        "min", 1.0,
        "the sharded multi-device solve must stay bit-identical to the "
        "single-device facade for every registry kernel (1.0 = all exact; "
        "any divergence zeroes the gauge)"),
    "scaleout.bench.weak_efficiency_4": (
        "min", 0.5,
        "weak-scaling efficiency at 4 simulated shards (constant per-shard "
        "tile, thread-CPU critical path + modelled exchange) must stay "
        "above 50%; ~90% measured on the reference host, budgeted for "
        "noisy CI boxes"),
    "storm.bench.requests": (
        "min", 100000.0,
        "the QoS storm must offer at least 1e5 open-loop requests — a "
        "smaller run does not stress the scheduler/shedding/cache paths "
        "the SLO gates are about"),
    "storm.bench.p99_ms": (
        "max", 500.0,
        "p99 served latency of the clean 1e5-request storm must meet the "
        "SLO; ~75ms measured on the reference host, budgeted with ~6x "
        "headroom for noisy CI boxes"),
    "storm.bench.p999_ms": (
        "max", 1000.0,
        "p999 served latency of the clean storm must stay bounded (no "
        "unbounded tail behind the weighted-fair scheduler)"),
    "storm.bench.p99_ms_faulted": (
        "max", 750.0,
        "p99 served latency with the fault plan armed (injected admission "
        "latency, forced sheds, backend transfer failures) must still meet "
        "the degraded SLO"),
    "storm.bench.shed_fairness": (
        "min", 1.0,
        "the scheduler audit must count zero unfair sheds across both "
        "storms: a within-quota tenant may never be shed while an "
        "over-quota tenant stays admitted"),
    "storm.bench.cache_within_cap": (
        "min", 1.0,
        "the tiered result cache's peak resident bytes must never exceed "
        "its configured byte cap (hard invariant, checked in both storms)"),
}


def check_gauge_gates(path, gauges):
    for name, (direction, bound, rationale) in GAUGE_GATES.items():
        value = gauges.get(name)
        if value is None:  # absent, or the exporter's NaN/Inf encoding
            continue
        if direction == "max" and value >= bound:
            fail(path, f"gauge {name} = {value!r} breaches its budget "
                       f"(< {bound}): {rationale}")
        if direction == "min" and value < bound:
            fail(path, f"gauge {name} = {value!r} is below its floor "
                       f"(>= {bound}): {rationale}")


def check_artefact(path, require_spans):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        fail(path, f"cannot read: {err}")
    except json.JSONDecodeError as err:
        fail(path, f"not valid JSON: {err}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(path, f'missing or non-object "{section}"')
    if not isinstance(doc.get("spans"), list):
        fail(path, 'missing or non-array "spans"')

    for name, value in doc["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(path, f"counter {name}: expected a non-negative integer")
    for name, value in doc["gauges"].items():
        check_number(path, f"gauge {name}", value)
    check_gauge_gates(path, doc["gauges"])
    for name, summary in doc["histograms"].items():
        if not isinstance(summary, dict):
            fail(path, f"histogram {name}: expected an object")
        for stat in ("count", "min", "max", "sum", "mean",
                     "p50", "p95", "p99", "p999"):
            if stat not in summary:
                fail(path, f"histogram {name}: missing {stat}")
            check_number(path, f"histogram {name}.{stat}", summary[stat])
    for index, span in enumerate(doc["spans"]):
        if not isinstance(span, dict) or "path" not in span:
            fail(path, f"span #{index}: expected an object with a path")
        check_number(path, f"span #{index}.start_s", span.get("start_s"))
        check_number(path, f"span #{index}.duration_s", span.get("duration_s"))

    metrics = len(doc["counters"]) + len(doc["gauges"]) + len(doc["histograms"])
    if metrics == 0:
        fail(path, "artefact contains no metrics at all")
    if require_spans and not doc["spans"]:
        fail(path, "artefact contains no spans (expected traced phases)")
    print(f"check_bench_json: {path}: ok "
          f"({metrics} metrics, {len(doc['spans'])} spans)")


def main(argv):
    args = [a for a in argv[1:] if a != "--require-spans"]
    require_spans = "--require-spans" in argv[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in args:
        check_artefact(path, require_spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
