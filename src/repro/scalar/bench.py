"""Pipeline microbenchmarks: batch vs per-event engines.

Two benchmark modes, both differential (the engines' outputs are
checked for equality before any timing, so a reported speedup can
never come from a divergent result) and both warmed up before timing
(every timed function runs ``--warmup`` untimed iterations first, so a
cold numpy/allocator path or CI jitter cannot fail a threshold
spuriously):

* **classify** (default): times the classification stage alone —
  :func:`repro.scalar.tracker.classify_trace` (per-event reference)
  vs :func:`repro.scalar.batch.classify_trace_batch` (vectorized).
  The committed ``BENCH_classify.json`` is this output.
* **--streaming**: measures the chunk-streaming pipeline's throughput
  and *memory boundedness* on the replicated synthetic stream: the
  streamed arm (:class:`repro.experiments.streaming.StreamingPipeline`
  in aggregates-only mode) and the whole-trace arm (materialize +
  classify + interpret) each run in a child process, optionally under
  a hard ``RLIMIT_AS`` ceiling (``--rss-limit-mb``) — at the large
  tier the streamed arm completes where the whole-trace arm dies of
  :class:`MemoryError`.  Reports events/s, peak RSS and peak
  bytes-in-flight per arm; ``speedup`` is the memory ratio (whole-arm
  over streamed-arm peak), so ``--min-speedup`` gates boundedness.
  The committed ``BENCH_streaming.json`` is this output.
* **--pipeline**: times the whole classify → interpret → lower →
  **simulate** → account spine over all four paper architectures —
  reference path (``classify_trace`` + ``process_classified`` +
  ``build_timing_ops`` + the cycle-level ``SmSimulator`` +
  ``PowerAccountant.account``) vs fast path (``classify_columnar_
  batch`` + ``ClassifiedColumns`` + ``process_columns`` +
  ``build_timing_ops_columns`` + the event-driven ``EventSmSimulator``
  + ``account_columns``).  The SM simulation is *inside* the timed
  region (``sm_simulation_excluded: false``): each engine pair runs
  its own SM engine, and the equivalence gate pins the two
  :class:`~repro.timing.sm.TimingResult` objects bit-equal before any
  timing.  The committed ``BENCH_pipeline.json`` is this output.

Prints a JSON object (also written to ``--json`` when given) and exits
non-zero when any benchmark's speedup falls below ``--min-speedup`` —
which makes the command directly usable as the CI perf-smoke gate.
Usage::

    PYTHONPATH=src python -m repro.scalar.bench BP LC LBM --scale default \
        --min-speedup 2.0 --json BENCH_classify.json
    PYTHONPATH=src python -m repro.scalar.bench BP LC LBM --pipeline \
        --min-speedup 3.0 --json BENCH_pipeline.json

The report records which suite benchmarks were *not* measured under
``skipped_benchmarks``, so a truncated run is visible in the artifact
rather than silently looking like full coverage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable

from repro.config import GpuConfig
from repro.experiments.runner import paper_architectures
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.architectures import process_classified
from repro.scalar.batch import classify_columnar_batch, classify_trace_batch
from repro.scalar.columns import (
    ClassifiedColumns,
    ProcessedColumns,
    processed_columns_equal,
)
from repro.scalar.tracker import classify_trace, trace_statistics
from repro.simt.executor import run_kernel
from repro.simt.trace import KernelTrace
from repro.timing.gpu import (
    lower_to_timing_ops,
    simulate_architecture,
    simulate_architecture_columns,
)
from repro.timing.ops import build_timing_ops_columns
from repro.workloads.registry import SCALES, all_workloads, build_workload

# BP and LC exercise the compute-heavy paths; LBM (memory_intensive in
# the registry) keeps a DRAM-bound workload in the committed perf-smoke
# set so memory-system regressions surface too.
DEFAULT_BENCHMARKS = ("BP", "LC", "LBM")
#: Streaming mode runs each arm once over a 10^6+-event stream; one
#: benchmark keeps the committed artifact's runtime reasonable (HS has
#: a mid-sized seed and both uniform and divergent phases).
DEFAULT_STREAMING_BENCHMARKS = ("HS",)
DEFAULT_WARMUP = 1


def _median_seconds(
    fn: Callable[[], object], repeats: int, warmup: int = DEFAULT_WARMUP
) -> float:
    """Median timed seconds after ``warmup`` untimed iterations."""
    for _ in range(warmup):
        fn()
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def measure(
    benchmark: str, scale: str, repeats: int, warmup: int = DEFAULT_WARMUP
) -> dict:
    """Median classify seconds per engine for one benchmark."""
    built = build_workload(benchmark, scale)
    trace: KernelTrace = run_kernel(built.kernel, built.launch, built.memory)
    num_registers = built.kernel.num_registers

    # Equivalence gate: identical statistics (class counts, divergence,
    # decompress-moves) or the timing numbers are meaningless.
    event_stats = trace_statistics(classify_trace(trace, num_registers))
    batch_stats = trace_statistics(classify_trace_batch(trace, num_registers))
    if event_stats != batch_stats:
        raise AssertionError(
            f"{benchmark}: engines disagree — event {event_stats} "
            f"!= batch {batch_stats}"
        )

    event_seconds = _median_seconds(
        lambda: classify_trace(trace, num_registers), repeats, warmup
    )
    batch_seconds = _median_seconds(
        lambda: classify_trace_batch(trace, num_registers), repeats, warmup
    )
    return {
        "benchmark": benchmark,
        "scale": scale,
        "repeats": repeats,
        "warmup": warmup,
        "events": trace.total_instructions,
        "event_seconds": round(event_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "speedup": round(event_seconds / batch_seconds, 3),
    }


def measure_pipeline(
    benchmark: str, scale: str, repeats: int, warmup: int = DEFAULT_WARMUP
) -> dict:
    """Median classify→simulate→power pipeline seconds per engine.

    Times the full architecture-evaluation spine — classification,
    per-architecture interpretation, timing-op lowering, **SM timing
    simulation** and power accounting over all four paper
    architectures.  The reference path runs the per-event engines and
    the cycle-level SM model; the fast path runs the columnar engines
    and the event-driven SM engine.  Before any timing, an equivalence
    gate pins every intermediate equal across the paths — processed
    columns, lowered timing ops, the full
    :class:`~repro.timing.sm.TimingResult` (cycles, instruction and
    memory counters, per-scheduler issue, conflict and stall counters)
    and the power report — so a reported speedup can never come from a
    divergent result.
    """
    built = build_workload(benchmark, scale)
    trace: KernelTrace = run_kernel(built.kernel, built.launch, built.memory)
    columnar = trace.to_columnar()
    num_registers = built.kernel.num_registers
    config = GpuConfig()
    arches = paper_architectures()
    warp_size = trace.warp_size
    warps_per_cta = built.launch.warps_per_cta(warp_size)

    # Untimed differential gate over every stage, SM engines included.
    classified = classify_trace(trace, num_registers)
    _, batch_classified = classify_columnar_batch(columnar, num_registers)
    ccols = ClassifiedColumns.from_classified(
        batch_classified, warp_size, columnar=columnar
    )
    for arch in arches:
        processed = process_classified(classified, arch, warp_size)
        pcols = process_columns(ccols, arch)
        if not processed_columns_equal(
            ProcessedColumns.from_events(processed, warp_size), pcols
        ):
            raise AssertionError(
                f"{benchmark}/{arch.name}: engines disagree on processed columns"
            )
        event_ops = lower_to_timing_ops(processed, arch, config, warp_size)
        if event_ops != build_timing_ops_columns(ccols, pcols, arch, config).to_ops():
            raise AssertionError(
                f"{benchmark}/{arch.name}: engines disagree on timing ops"
            )
        cycle_timing = simulate_architecture(
            processed,
            arch,
            config,
            warp_size,
            warps_per_cta=warps_per_cta,
            sm_engine="cycle",
        )
        event_timing = simulate_architecture_columns(
            ccols,
            pcols,
            arch,
            config,
            warps_per_cta=warps_per_cta,
            sm_engine="event",
        )
        if cycle_timing != event_timing:
            raise AssertionError(
                f"{benchmark}/{arch.name}: SM engines disagree — "
                f"cycle {cycle_timing} != event {event_timing}"
            )
        accountant = PowerAccountant(arch, config=config)
        event_report = accountant.account(processed, cycle_timing)
        batch_report = accountant.account_columns(pcols, event_timing)
        if event_report != batch_report:
            raise AssertionError(
                f"{benchmark}/{arch.name}: engines disagree on the power report"
            )

    def event_pipeline() -> None:
        run_classified = classify_trace(trace, num_registers)
        for arch in arches:
            processed = process_classified(run_classified, arch, warp_size)
            timing = simulate_architecture(
                processed,
                arch,
                config,
                warp_size,
                warps_per_cta=warps_per_cta,
                sm_engine="cycle",
            )
            PowerAccountant(arch, config=config).account(processed, timing)

    def batch_pipeline() -> None:
        _, run_classified = classify_columnar_batch(columnar, num_registers)
        run_ccols = ClassifiedColumns.from_classified(
            run_classified, warp_size, columnar=columnar
        )
        for arch in arches:
            pcols = process_columns(run_ccols, arch)
            timing = simulate_architecture_columns(
                run_ccols,
                pcols,
                arch,
                config,
                warps_per_cta=warps_per_cta,
                sm_engine="event",
            )
            PowerAccountant(arch, config=config).account_columns(pcols, timing)

    event_seconds = _median_seconds(event_pipeline, repeats, warmup)
    batch_seconds = _median_seconds(batch_pipeline, repeats, warmup)
    return {
        "benchmark": benchmark,
        "scale": scale,
        "repeats": repeats,
        "warmup": warmup,
        "events": trace.total_instructions,
        "architectures": [arch.name for arch in arches],
        "sm_simulation_excluded": False,
        "event_seconds": round(event_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "speedup": round(event_seconds / batch_seconds, 3),
    }


def _run_streaming_arm(
    benchmark: str, scale_name: str, arm: str, chunk_events: int
) -> dict:
    """One memory-measurement arm over the replicated synthetic stream.

    ``streamed`` feeds :class:`~repro.experiments.streaming.
    StreamingPipeline` (aggregates-only mode: the bounded spine, no
    timing-op accumulation) one generated chunk at a time; ``whole``
    materializes the full replicated trace and runs the whole-trace
    engines over it — the arm whose footprint grows with the stream.
    """
    from repro.experiments.streaming import StreamingPipeline, _array_bytes
    from repro.obs.memory import peak_rss_bytes
    from repro.workloads.synth import (
        iter_synthetic_chunks,
        materialize_synthetic,
        synthetic_replicas,
    )

    built = build_workload(benchmark, scale_name)
    trace = run_kernel(built.kernel, built.launch, built.memory)
    seed = trace.to_columnar()
    num_registers = built.kernel.num_registers
    del trace, built
    scale = SCALES[scale_name]
    replicas = synthetic_replicas(seed, scale)
    arches = paper_architectures()
    if arm == "streamed":
        pipeline = StreamingPipeline(
            arches, num_registers, collect_timing_ops=False
        )
        for chunk in iter_synthetic_chunks(seed, replicas, chunk_events):
            pipeline.feed(chunk)
        peak_in_flight = pipeline.peak_bytes_in_flight
    else:
        whole = materialize_synthetic(seed, replicas)
        _, classified = classify_columnar_batch(whole, num_registers)
        ccols = ClassifiedColumns.from_classified(
            classified, whole.warp_size, columnar=whole
        )
        del classified
        peak_in_flight = _array_bytes(whole) + _array_bytes(ccols)
        for arch in arches:
            pcols = process_columns(ccols, arch)
            PowerAccountant(arch).aggregates_from_columns(pcols)
            peak_in_flight = max(
                peak_in_flight,
                _array_bytes(whole) + _array_bytes(ccols) + _array_bytes(pcols),
            )
    return {
        "events": seed.num_events * replicas,
        "replicas": replicas,
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_bytes_in_flight": peak_in_flight,
    }


def _probe_main(argv: list[str]) -> int:
    """Hidden child-process entry point for one streaming arm.

    Applies the address-space ceiling *to this process only*, runs the
    arm, and prints one JSON line.  Exit 3 means the arm exceeded the
    ceiling (:class:`MemoryError`) — an expected outcome the parent
    records, distinct from real failures.
    """
    import resource

    benchmark, scale_name, arm, chunk_events, limit_mb = argv
    limit_mb = int(limit_mb)
    if limit_mb > 0:
        limit = limit_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    started = time.perf_counter()
    try:
        result = _run_streaming_arm(
            benchmark, scale_name, arm, int(chunk_events)
        )
    except MemoryError:
        print(json.dumps({"completed": False, "error": "MemoryError"}))
        return 3
    result["completed"] = True
    result["seconds"] = round(time.perf_counter() - started, 6)
    print(json.dumps(result))
    return 0


def measure_streaming(
    benchmark: str, scale: str, chunk_events: int, rss_limit_mb: int
) -> dict:
    """Streamed vs whole-trace memory arms for one benchmark.

    Bit-equality gate first (on the seed trace, whole outputs
    included): the streamed pipeline's timing and power must equal the
    whole-trace engines' exactly.  Then each arm runs once in a child
    process — so one arm's allocator high-water mark can never pollute
    the other's RSS, and the ``--rss-limit-mb`` ceiling kills only the
    arm that actually exceeds it.
    """
    import os
    import subprocess

    from repro.experiments.streaming import stream_pipeline
    from repro.simt.trace import iter_chunks

    built = build_workload(benchmark, scale)
    trace: KernelTrace = run_kernel(built.kernel, built.launch, built.memory)
    seed = trace.to_columnar()
    num_registers = built.kernel.num_registers
    config = GpuConfig()
    arches = paper_architectures()
    warps_per_cta = built.launch.warps_per_cta(seed.warp_size)

    outcome = stream_pipeline(
        iter_chunks(seed, max(1, seed.num_events // 7)),
        arches,
        num_registers,
        config=config,
        warps_per_cta=warps_per_cta,
    )
    _, classified = classify_columnar_batch(seed, num_registers)
    ccols = ClassifiedColumns.from_classified(
        classified, seed.warp_size, columnar=seed
    )
    for arch in arches:
        pcols = process_columns(ccols, arch)
        timing = simulate_architecture_columns(
            ccols, pcols, arch, config,
            warps_per_cta=warps_per_cta, sm_engine="event",
        )
        report = PowerAccountant(arch, config=config).account_columns(
            pcols, timing
        )
        if outcome.timing[arch.name] != timing or outcome.power[arch.name] != report:
            raise AssertionError(
                f"{benchmark}/{arch.name}: streamed pipeline disagrees "
                "with the whole-trace engines"
            )
    del trace, classified, ccols

    def spawn(arm: str) -> dict:
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.scalar.bench", "--_probe",
                benchmark, scale, arm, str(chunk_events), str(rss_limit_mb),
            ],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 3:
            return {"completed": False, "error": "MemoryError"}
        raise RuntimeError(
            f"{benchmark}: probe arm {arm!r} failed "
            f"(exit {proc.returncode}): {proc.stderr[-2000:]}"
        )

    streamed = spawn("streamed")
    whole = spawn("whole")
    if not streamed["completed"]:
        raise AssertionError(
            f"{benchmark}: the streamed arm itself exceeded the "
            f"{rss_limit_mb} MiB ceiling — streaming is not bounded"
        )
    if whole.get("completed"):
        # Both fit: the honest memory ratio is live-bytes over live-bytes.
        memory_ratio = (
            whole["peak_bytes_in_flight"] / streamed["peak_bytes_in_flight"]
        )
    else:
        # The whole-trace arm needed more than the ceiling, so the
        # ceiling itself is its (conservative) footprint lower bound.
        memory_ratio = (
            rss_limit_mb * 1024 * 1024 / streamed["peak_rss_bytes"]
        )
    return {
        "benchmark": benchmark,
        "scale": scale,
        "chunk_events": chunk_events,
        "rss_limit_mb": rss_limit_mb,
        "events": streamed["events"],
        "replicas": streamed["replicas"],
        "events_per_second": round(streamed["events"] / streamed["seconds"], 1),
        "streamed": streamed,
        "whole_trace": whole,
        "speedup": round(memory_ratio, 3),
    }


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["--_probe"]:
        return _probe_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="repro.scalar.bench",
        description="Benchmark batch vs per-event pipeline engines.",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        default=[],
        help=f"workload abbreviations (default: {' '.join(DEFAULT_BENCHMARKS)}; "
        f"--streaming defaults to {' '.join(DEFAULT_STREAMING_BENCHMARKS)})",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload problem size (default: default)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        metavar="N",
        help="timed repetitions per engine; medians are reported (default: 5)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=DEFAULT_WARMUP,
        metavar="N",
        help="untimed warmup iterations per engine before timing "
        f"(default: {DEFAULT_WARMUP})",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="benchmark the full classify->interpret->lower->simulate->"
        "account pipeline over the four paper architectures instead of "
        "classification alone (SM timing simulation included: the "
        "reference path runs the cycle SM engine, the fast path the "
        "event SM engine)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="benchmark the chunk-streaming pipeline's memory boundedness "
        "on the replicated synthetic stream: streamed vs whole-trace "
        "arms in child processes (optionally under --rss-limit-mb); "
        "speedup is the whole-over-streamed peak-memory ratio",
    )
    parser.add_argument(
        "--chunk-events",
        type=int,
        default=None,
        metavar="N",
        help="streaming only: chunk size in events "
        "(default: the runner's streaming default)",
    )
    parser.add_argument(
        "--rss-limit-mb",
        type=int,
        default=0,
        metavar="MB",
        help="streaming only: hard RLIMIT_AS ceiling per arm child "
        "process (default: 0, unlimited)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless every benchmark's batch speedup is >= X",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report to PATH",
    )
    args = parser.parse_args(arguments)
    if args.pipeline and args.streaming:
        parser.error("--pipeline and --streaming are mutually exclusive")
    if args.chunk_events is not None and not args.streaming:
        parser.error("--chunk-events only applies to --streaming")
    if args.chunk_events is not None and args.chunk_events < 1:
        parser.error("--chunk-events must be >= 1")
    defaults = (
        DEFAULT_STREAMING_BENCHMARKS if args.streaming else DEFAULT_BENCHMARKS
    )
    benchmarks = [
        name.strip().upper() for name in (args.benchmarks or defaults)
    ]

    if args.streaming:
        from repro.experiments.runner import DEFAULT_STREAM_CHUNK

        chunk_events = args.chunk_events or DEFAULT_STREAM_CHUNK
        results = [
            measure_streaming(name, args.scale, chunk_events, args.rss_limit_mb)
            for name in benchmarks
        ]
    else:
        measurer = measure_pipeline if args.pipeline else measure
        results = [
            measurer(name, args.scale, args.repeats, args.warmup)
            for name in benchmarks
        ]
    worst = min(result["speedup"] for result in results)
    measured = set(benchmarks)
    skipped = [
        spec.abbr for spec in all_workloads() if spec.abbr not in measured
    ]
    if args.streaming:
        mode = "streaming"
    elif args.pipeline:
        mode = "pipeline"
    else:
        mode = "classify"
    report = {
        "mode": mode,
        "scale": args.scale,
        "repeats": args.repeats,
        "warmup": args.warmup,
        "min_speedup_required": args.min_speedup,
        "worst_speedup": worst,
        "skipped_benchmarks": skipped,
        "results": results,
    }
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.json is not None:
        with open(args.json, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"[wrote report to {args.json}]", file=sys.stderr)
    if args.min_speedup is not None and worst < args.min_speedup:
        print(
            f"FAIL: worst speedup {worst:.2f}x < required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
