"""Null-sink overhead benchmark for the telemetry hooks.

Runs the production chain on one benchmark — functional execution,
columnar packing, vectorized classification, columnar interpretation
and the event-driven SM timing loop (recorder disabled — the
configuration every normal run uses, which the flight-recorder hooks
must not slow down) — repeatedly under three settings:

* ``off`` — the process-global registry is the disabled null registry
  (the default for every normal run; this is the "seed-equivalent"
  configuration the 5% CI guard protects),
* ``null-sink`` — an enabled registry with a :class:`~repro.obs.sinks.\
  NullSink`, paying the aggregation passes but writing nothing, and
* ``full`` — an enabled registry (same as ``null-sink``; sinks only
  receive spans, so the two differ by sink dispatch only).

Prints a JSON object with the median seconds per setting and the
disabled-path overhead ratio ``off / min(off, null_sink)`` — the
number the CI guard bounds.  Usage::

    PYTHONPATH=src python -m repro.obs.bench --benchmark BP --scale small
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.obs.sinks import NullSink
from repro.obs.telemetry import Telemetry, telemetry_session


def _one_run(benchmark: str, scale: str) -> float:
    from repro.experiments.runner import paper_architectures
    from repro.scalar.arch_batch import process_columns
    from repro.scalar.batch import classify_columnar_batch
    from repro.simt.executor import run_kernel
    from repro.timing.gpu import simulate_architecture_columns
    from repro.workloads.registry import build_workload

    built = build_workload(benchmark, scale)
    arch = paper_architectures()[0]
    started = time.perf_counter()
    columnar = run_kernel(built.kernel, built.launch, built.memory).to_columnar()
    ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
    # The SM timing loop runs inside the measured region so the CI
    # bound also covers the flight-recorder hook sites (recorder=None,
    # the default every normal run takes).
    simulate_architecture_columns(
        ccols,
        process_columns(ccols, arch),
        arch,
        warps_per_cta=built.launch.warps_per_cta(columnar.warp_size),
        sm_engine="event",
    )
    return time.perf_counter() - started


def measure(benchmark: str, scale: str, repeats: int) -> dict:
    """Median pipeline-front seconds per telemetry setting."""
    timings: dict[str, list[float]] = {"off": [], "null_sink": [], "full": []}
    _one_run(benchmark, scale)  # warm caches and imports once
    for _ in range(repeats):
        timings["off"].append(_one_run(benchmark, scale))
        with telemetry_session(Telemetry(sink=NullSink())):
            timings["null_sink"].append(_one_run(benchmark, scale))
        with telemetry_session():
            timings["full"].append(_one_run(benchmark, scale))
    medians = {name: statistics.median(values) for name, values in timings.items()}
    baseline = min(medians["off"], medians["null_sink"])
    return {
        "benchmark": benchmark,
        "scale": scale,
        "repeats": repeats,
        "median_seconds": {name: round(value, 6) for name, value in medians.items()},
        "disabled_overhead_ratio": round(medians["off"] / baseline, 4)
        if baseline > 0
        else 1.0,
        "enabled_overhead_ratio": round(medians["null_sink"] / medians["off"], 4)
        if medians["off"] > 0
        else 1.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.bench",
        description="Measure telemetry overhead on the production pipeline.",
    )
    parser.add_argument("--benchmark", default="BP", help="workload abbreviation")
    parser.add_argument("--scale", default="small", help="workload problem size")
    parser.add_argument("--repeats", type=int, default=5, help="runs per setting")
    parser.add_argument(
        "--max-disabled-overhead",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail (exit 1) when the disabled-path ratio exceeds RATIO",
    )
    args = parser.parse_args(argv)
    result = measure(args.benchmark, args.scale, max(1, args.repeats))
    print(json.dumps(result, indent=2, sort_keys=True))
    if (
        args.max_disabled_overhead is not None
        and result["disabled_overhead_ratio"] > args.max_disabled_overhead
    ):
        print(
            f"[overhead guard failed: {result['disabled_overhead_ratio']} > "
            f"{args.max_disabled_overhead}]",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
