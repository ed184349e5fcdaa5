"""Streaming memory check: the chunked pipeline stays bounded.

Measures the chunk-streaming pipeline's throughput and *memory
boundedness* on the replicated synthetic stream.  The streamed arm
(:class:`repro.experiments.streaming.StreamingPipeline` in
aggregates-only mode) and the whole-trace arm (materialize + classify
+ interpret) each run in a child process, optionally under a hard
``RLIMIT_AS`` ceiling (``--rss-limit-mb``) — at the large tier the
streamed arm completes where the whole-trace arm dies of
:class:`MemoryError`.  Before either arm runs, a bit-equality gate pins
the streamed pipeline's timing and power to the whole-trace engines on
the seed trace.  Reports events/s, peak RSS and peak bytes-in-flight
per arm; ``speedup`` is the memory ratio (whole-arm over streamed-arm
peak), so ``--min-speedup`` gates boundedness.  The committed
``BENCH_streaming.json`` is this output.

Prints a JSON object (also written to ``--json`` when given) and exits
non-zero when any benchmark's ratio falls below ``--min-speedup``.
Usage::

    PYTHONPATH=src python -m repro.scalar.bench --scale large \
        --rss-limit-mb 512 --min-speedup 2.0 --json BENCH_streaming.json

The report records which suite benchmarks were *not* measured under
``skipped_benchmarks``, so a truncated run is visible in the artifact
rather than silently looking like full coverage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.config import GpuConfig
from repro.experiments.runner import paper_architectures
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt.executor import run_kernel
from repro.timing.gpu import simulate_architecture_columns
from repro.workloads.registry import SCALES, all_workloads, build_workload

#: Each arm runs once over a 10^6+-event stream; one benchmark keeps
#: the committed artifact's runtime reasonable (HS has a mid-sized seed
#: and both uniform and divergent phases).
DEFAULT_STREAMING_BENCHMARKS = ("HS",)

#: Chunk size in events when ``--chunk-events`` is not given.
DEFAULT_STREAM_CHUNK = 65536


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
    seed = run_kernel(built.kernel, built.launch, built.memory).to_columnar()
    num_registers = built.kernel.num_registers
    del built
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
        ccols = classify_columnar_batch(whole, num_registers)
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
    seed = run_kernel(built.kernel, built.launch, built.memory).to_columnar()
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
    ccols = classify_columnar_batch(seed, num_registers)
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
    del ccols

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
        description="Check the chunk-streaming pipeline's memory boundedness.",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCHMARK",
        default=[],
        help="workload abbreviations "
        f"(default: {' '.join(DEFAULT_STREAMING_BENCHMARKS)})",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload problem size (default: default)",
    )
    parser.add_argument(
        "--chunk-events",
        type=int,
        default=None,
        metavar="N",
        help=f"chunk size in events (default: {DEFAULT_STREAM_CHUNK})",
    )
    parser.add_argument(
        "--rss-limit-mb",
        type=int,
        default=0,
        metavar="MB",
        help="hard RLIMIT_AS ceiling per arm child process "
        "(default: 0, unlimited)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless every benchmark's whole-over-streamed peak "
        "memory ratio is >= X",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report to PATH",
    )
    args = parser.parse_args(arguments)
    if args.chunk_events is not None and args.chunk_events < 1:
        parser.error("--chunk-events must be >= 1")
    benchmarks = [
        name.strip().upper()
        for name in (args.benchmarks or DEFAULT_STREAMING_BENCHMARKS)
    ]

    chunk_events = args.chunk_events or DEFAULT_STREAM_CHUNK
    results = [
        measure_streaming(name, args.scale, chunk_events, args.rss_limit_mb)
        for name in benchmarks
    ]
    worst = min(result["speedup"] for result in results)
    measured = set(benchmarks)
    skipped = [
        spec.abbr for spec in all_workloads() if spec.abbr not in measured
    ]
    report = {
        "mode": "streaming",
        "scale": args.scale,
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
            f"FAIL: worst memory ratio {worst:.2f}x < required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
