#!/usr/bin/env python3
"""qcatalyst benchmark.

    python3 perfbench/run.py --workload {agreement,requests,sweep} \\
        --seed N --seconds S --trace {0,1}

Runs one workload on the checkout's ``src/`` (put on ``sys.path``; the package
need not be installed), checks every output, prints a readable report and,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the untouched package and reports the end-to-end
metrics; throughput and latency are scaled to nominal machine speed (see
reference.py).  ``--trace 1`` measures half the time untraced and half with every
listed function wrapped (see spans.py), and reports the per-layer metrics:
calls and self time per function, three ratios and the tracing overhead.
The exit code is 1 when any output check failed, 2 when the checkout has no
``src/qcatalyst``.  Metric definitions, the layer map and the seed baseline
are in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import Reference
from spans import Tracer
from workloads import WORKLOADS, Samples, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

SETUP_RUNS = 15
SLICE_S = 0.5
WARMUP_SHARE = 0.1
MAX_WARMUP_S = 1.0

# Workload-specific names of ops_per_s, op_p50_us and op_p99_us, printed alongside.
NAMED = {
    "agreement": {"ops_per_s": "checks_per_s"},
    "requests": {"ops_per_s": "requests_per_s", "op_p50_us": "request_p50_us",
                 "op_p99_us": "request_p99_us"},
    "sweep": {"ops_per_s": "sweep_points_per_s"},
}


def _setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import qcatalyst.cli and
    exit, launched one at a time with the same PYTHONPATH; each launch is
    scaled to nominal speed by the reference task timed just before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import qcatalyst.cli"]
    times = []
    for run in range(SETUP_RUNS + 1):
        reference = Reference()
        reference.measure()
        start = perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        # and the measured time snaps to that grid.
        subprocess.run(command, env=env, check=True)
        if run:  # the first launch only warms the file cache
            times.append((perf_counter() - start) * reference.speed())
    return statistics.median(times)


def _throughput(samples: Samples) -> float:
    """Units of work per second of timed calls, at nominal speed."""
    return sum(samples.units) / sum(samples.durations) / samples.speed


def _percentile_us(samples: Samples, q: int) -> float:
    """The q-th percentile of call latency, at nominal speed."""
    if len(samples.durations) < 2:
        raw = samples.durations[0]
    else:
        raw = statistics.quantiles(samples.durations, n=100)[q - 1]
    return raw * samples.speed * 1e6


def _measure(workload, seconds: float, rss_after: int = 0) -> Samples:
    """Run the workload for ``seconds`` in slices of SLICE_S, timing the
    reference task before each slice; ``samples.speed`` is the result."""
    samples = Samples(rss_after)
    reference = Reference()
    deadline = perf_counter() + seconds
    while True:
        reference.measure()
        remaining = deadline - perf_counter()
        if remaining <= 0:
            samples.speed = reference.speed()
            return samples
        workload.run(min(SLICE_S, remaining), samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, seconds: float, tally: list) -> dict:
    setup_s = _setup_seconds()
    warmup = _measure(workload, min(MAX_WARMUP_S, seconds * WARMUP_SHARE))
    samples = _measure(workload, seconds, workload.rss_after)
    tally += [warmup, samples]
    ops_per_s = _throughput(samples)
    p50, p99 = _percentile_us(samples, 50), _percentile_us(samples, 99)
    rss_mb = samples.rss_mb or peak_rss_mb()
    rss_calls = min(workload.rss_after, len(samples.durations))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_p50_us": _metric(p50, "us"),
        "op_p99_us": _metric(p99, "us"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    named = NAMED[workload.name]
    print(f"{workload.name}: {len(samples.durations)} timed calls in {seconds:g} s, "
          f"{samples.attempted} checked; machine speed {samples.speed:.4f} x nominal")
    for key, metric in metrics.items():
        alias = f" ({named[key]})" if key in named else ""
        raw = ""
        if key == "ops_per_s":
            raw = f", as timed {metric['value'] * samples.speed:.6g}"
        elif key.startswith("op_p"):
            raw = f", as timed {metric['value'] / samples.speed:.6g}"
        print(f"  {key}{alias} = {metric['value']:.6g} {metric['unit']}{raw}")
    print(f"  latency samples: {len(samples.durations)} timed calls "
          f"(one per {workload.call}), about {len(samples.durations) // 100} beyond p99; "
          f"peak RSS taken after {rss_calls} calls")
    return metrics


def traced(workload, seconds: float, tally: list) -> dict:
    from qcatalyst import catalysis

    tracer = workload.tracer
    half = seconds / 2
    warmup = _measure(workload, min(MAX_WARMUP_S, seconds * WARMUP_SHARE))
    plain = _measure(workload, half)
    before = catalysis.analyze.cache_info()
    tracer.install()
    try:
        with_spans = _measure(workload, half)
    finally:
        tracer.uninstall()
    after = catalysis.analyze.cache_info()
    tally += [warmup, plain, with_spans]

    totals = tracer.totals()
    busy = sum(with_spans.durations)
    metrics = {}
    print(f"{workload.name} traced: {len(tracer)} spans over {busy:.3f} s of timed calls")
    print(f"  {'span':42} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
        print(f"  {name:42} {calls:9d} {self_s:10.4f} {self_s / busy:7.1%}")

    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    hit_ratio = (after.hits - before.hits) / lookups if lookups else 0.0
    halvings = with_spans.halvings
    halvings_per_call = sum(halvings) / len(halvings) if halvings else 0.0
    main_calls = sum(with_spans.exit_codes.values())
    exit1_ratio = with_spans.exit_codes[1] / main_calls if main_calls else 0.0
    plain_rate = _throughput(plain)
    traced_rate = _throughput(with_spans)
    overhead_pct = (1 - traced_rate / plain_rate) * 100
    for key, value, unit, base in (
        ("catalysis.analyze.cache_hit_ratio", hit_ratio, "ratio", f"{lookups} lookups"),
        ("constructor.construct_states.halvings_per_call", halvings_per_call, "count",
         f"{len(halvings)} construct requests"),
        ("cli.main.exit1_ratio", exit1_ratio, "ratio", f"{main_calls} cli.main calls"),
        ("trace.overhead_pct", overhead_pct, "%",
         f"{plain_rate:.6g} untraced vs {traced_rate:.6g} traced {workload.unit}s/s"),
    ):
        metrics[key] = _metric(value, unit)
        print(f"  {key} = {value:.6g} {unit} ({base})")

    path = SPAN_DIR / f"spans-{workload.name}.csv.gz"
    tracer.write(path)
    print(f"  spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "qcatalyst" / "__init__.py").is_file():
        print(f"error: no qcatalyst package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcatalyst

    if Path(qcatalyst.__file__).resolve().parent != (SRC / "qcatalyst").resolve():
        print(f"error: imported qcatalyst from {qcatalyst.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, Tracer())
    tally: list = []
    if args.trace:
        metrics = traced(workload, args.seconds, tally)
    else:
        metrics = untraced(workload, args.seconds, tally)
    attempted = sum(s.attempted for s in tally)
    failed = sum(s.failed for s in tally)
    print(f"failed_ops = {failed} of attempted_ops = {attempted}")
    for samples in tally:
        for failure in samples.failures:
            print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
