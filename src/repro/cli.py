"""Command-line entry point: regenerate the paper's figures and tables.

Examples::

    python -m repro table2
    python -m repro fig9 --scale small
    python -m repro all --scale default --cache-dir .repro-cache
    python -m repro fig11 --scale small --trace-out fig11.trace.json
    python -m repro timeline bp --scale small --trace-out bp.trace.json
    python -m repro cache stats --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from repro.experiments import (
    extras,
    fig1,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    scorecard,
    stalls,
    staticdyn,
    suite,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import ExperimentRunner, matrix_architectures
from repro.experiments.summary import BUILDERS as SUMMARY_BUILDERS
from repro.workloads.registry import SCALES

#: The module of each trace-reading experiment, in CLI order.  Those
#: that read summaries name them in ``SUMMARIES``, and those that read
#: timing or power results name their architectures in ``ARCHITECTURES``.
_MODULES = {
    "fig1": fig1,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "extras": extras,
    "scorecard": scorecard,
    "suite": suite,
    "staticdyn": staticdyn,
    "stalls": stalls,
}
#: The static tables, which read no trace and render without arguments.
_STATIC_MODULES = {"table1": table1, "table2": table2, "table3": table3}
EXPERIMENTS = tuple(_MODULES) + tuple(_STATIC_MODULES)


def _bars_for(name: str, data) -> str:
    """Bar-chart view of Figure 11's or Figure 12's computed data."""
    from repro.experiments.tables import render_bar_chart

    labels = [row.abbr for row in data.rows]
    if name == "fig11":
        series = {
            "ALU scalar": [r.normalized_efficiency("alu_scalar") for r in data.rows],
            "G-Scalar": [r.normalized_efficiency("gscalar") for r in data.rows],
        }
        return render_bar_chart(
            labels, series, reference=1.0,
            title="Figure 11 (bars): normalized IPC/W, | marks baseline",
        )
    series = {
        "scalar only": [r.normalized["scalar_rf"] for r in data.rows],
        "ours": [r.normalized["ours"] for r in data.rows],
    }
    return render_bar_chart(
        labels, series, reference=1.0,
        title="Figure 12 (bars): normalized RF power, | marks baseline",
    )


def _lint_main(argv: list[str]) -> int:
    """``repro lint``: run the static analyzer over workload kernels.

    Exit status is 1 when any kernel has a diagnostic at or above the
    ``--fail-on`` severity (default: error), making the command directly
    usable as a CI gate.
    """
    from repro.analysis.static_ import (
        PassManager,
        Severity,
        default_passes,
        load_baseline,
        unsuppressed,
        write_baseline,
    )
    from repro.workloads.registry import all_workloads, build_workload, workload_by_name

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Lint workload kernels with the static analyzer.",
    )
    parser.add_argument(
        "kernels",
        nargs="*",
        metavar="KERNEL",
        help="workload abbreviations or names (default: all 17)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload problem size (default: default)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format: human-readable text (default) or one flat "
        "JSON array of diagnostics (rule, severity, kernel, block, "
        "instruction, message)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="error",
        help="lowest severity that fails the run (default: error)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress diagnostics recorded in FILE; only *new* findings "
        "count toward --fail-on",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="record the current diagnostics to FILE (then exit 0 unless "
        "new findings remain against an existing --baseline)",
    )
    parser.add_argument(
        "--min-severity",
        choices=("info", "warning", "error"),
        default="info",
        help="lowest severity to print in text mode (default: info)",
    )
    parser.add_argument(
        "--max-registers",
        type=int,
        default=64,
        metavar="N",
        help="per-thread register budget for GS-E003 (default: 64)",
    )
    args = parser.parse_args(argv)

    specs = (
        [workload_by_name(name) for name in args.kernels]
        if args.kernels
        else all_workloads()
    )
    manager = PassManager(default_passes(max_registers=args.max_registers))
    threshold = Severity.parse(args.fail_on)
    min_shown = Severity.parse(args.min_severity)
    reports = []
    for spec in specs:
        kernel = build_workload(spec.abbr, args.scale).kernel
        reports.append(manager.run(kernel))

    suppressed = set()
    if args.baseline is not None:
        try:
            suppressed = load_baseline(args.baseline)
        except FileNotFoundError:
            parser.error(f"baseline file not found: {args.baseline}")
        except ValueError as exc:
            parser.error(str(exc))
    gated = [unsuppressed(report, suppressed) for report in reports]
    failing = sum(
        1
        for found in gated
        if any(d.severity >= threshold for d in found)
    )
    if args.write_baseline is not None:
        recorded = write_baseline(reports, args.write_baseline)
        print(
            f"[recorded {recorded} diagnostic(s) to {args.write_baseline}]",
            file=sys.stderr,
        )
    if args.output_format == "json":
        # The stable machine interface: one flat array, one object per
        # diagnostic, in pass order within each kernel (shape pinned by
        # tests/analysis/test_static_lint.py).
        diagnostics = [
            d.to_dict() for report in reports for d in report.diagnostics
        ]
        print(json.dumps(diagnostics, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render(min_severity=min_shown))
        suffix = f" ({len(suppressed)} baselined)" if args.baseline else ""
        print(
            f"[linted {len(reports)} kernel(s): {failing} at or above "
            f"{threshold.value}{suffix}]",
            file=sys.stderr,
        )
    return 1 if failing else 0


def _timeline_main(argv: list[str]) -> int:
    """``repro timeline``: cycle-level introspection of one benchmark.

    Runs the SM timing model for one (benchmark, architecture) pair
    with the warp-timeline flight recorder attached, prints the
    per-scheduler stall-cause attribution table, and optionally writes
    a Chrome trace-event file: per-SM/per-scheduler/per-warp Perfetto
    timelines, the occupancy and issued-IPC interval series as a
    ``timeline`` counter track, and the attribution counters.

    The recorded run uses the event-driven SM engine, the one every
    other command uses.
    """
    from repro.config import architecture_by_name
    from repro.experiments.tables import render_table
    from repro.obs import (
        DEFAULT_CAPACITY,
        DEFAULT_INTERVAL_CYCLES,
        FlightRecorder,
        Telemetry,
        stalls_to_telemetry,
        write_chrome_trace,
    )
    from repro.timing.sm import STALL_CAUSES

    arch_names = [arch.name for arch in matrix_architectures()]
    parser = argparse.ArgumentParser(
        prog="repro timeline",
        description="Stall-cause attribution and warp timelines for one "
        "benchmark (open the trace at https://ui.perfetto.dev).",
    )
    parser.add_argument("benchmark", metavar="BENCHMARK",
                        help="workload abbreviation (e.g. bp)")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload problem size (default: default)",
    )
    parser.add_argument(
        "--arch",
        choices=arch_names,
        default="baseline",
        help="architecture to simulate (default: baseline)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the warp/scheduler timelines, the interval time "
        "series and the attribution counters as a Chrome trace-event "
        "JSON file to PATH",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=DEFAULT_CAPACITY,
        metavar="N",
        help=f"flight-recorder ring capacity in events "
        f"(default: {DEFAULT_CAPACITY}; oldest events drop first)",
    )
    parser.add_argument(
        "--interval-cycles",
        type=int,
        default=DEFAULT_INTERVAL_CYCLES,
        metavar="N",
        help="bucket width of the occupancy/issued-IPC time series "
        f"(default: {DEFAULT_INTERVAL_CYCLES})",
    )
    args = parser.parse_args(argv)
    if args.capacity < 1:
        parser.error("--capacity must be >= 1")
    if args.interval_cycles < 1:
        parser.error("--interval-cycles must be >= 1")

    arch = architecture_by_name(args.arch)
    bench = args.benchmark.strip().upper()
    runner = ExperimentRunner(scale=args.scale)
    recorder = (
        FlightRecorder(capacity=args.capacity, interval_cycles=args.interval_cycles)
        if args.trace_out is not None
        else None
    )
    result = runner.timeline(bench, arch, recorder)

    # Per-scheduler attribution table (the six-cause taxonomy), with
    # the aggregate row last; issued + causes tiles cycles × schedulers.
    headers = ["scheduler", "issued"] + list(STALL_CAUSES) + ["stall total"]
    rows = []
    for index, breakdown in enumerate(result.stalls_per_scheduler):
        issued = (
            result.issued_per_scheduler[index]
            if index < len(result.issued_per_scheduler)
            else 0
        )
        rows.append(
            [str(index), str(issued)]
            + [str(getattr(breakdown, cause)) for cause in STALL_CAUSES]
            + [str(breakdown.total)]
        )
    rows.append(
        ["all", str(sum(result.issued_per_scheduler))]
        + [str(getattr(result.stalls, cause)) for cause in STALL_CAUSES]
        + [str(result.stalls.total)]
    )
    print(
        render_table(
            headers,
            rows,
            title=f"{bench} on {arch.name} (event engine): "
            f"{result.cycles} cycles, IPC {result.ipc:.3f}",
        )
    )

    if recorder is not None:
        print(
            f"[recorded {recorder.recorded} events "
            f"({recorder.dropped} dropped by the {args.capacity}-event ring)]",
            file=sys.stderr,
        )
        registry = Telemetry()
        registry.spans.extend(recorder.to_spans())
        recorder.to_telemetry(registry)
        stalls_to_telemetry(registry, result, sm=recorder.sm)
        metadata = recorder.chrome_metadata(runner.config.schedulers_per_sm)
        write_chrome_trace(
            registry,
            args.trace_out,
            parent_pid=recorder.sm,
            process_names=metadata["process_names"],
            thread_names=metadata["thread_names"],
            samples=recorder.counter_samples(),
        )
        print(f"[wrote Chrome trace to {args.trace_out}]", file=sys.stderr)
    return 0


def _cache_main(argv: list[str]) -> int:
    """``repro cache``: inventory and maintenance of a cache directory.

    ``stats`` prints a JSON inventory — per-stage entry counts and
    on-disk bytes (entry kinds ``summary``/``result``) and the
    orphaned temp files still awaiting a sweep.  ``sweep`` reclaims
    those orphans now (every runner also sweeps on cache open, but only
    debris older than the age gate).
    """
    from repro.experiments import store

    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or garbage-collect an experiment cache "
        "directory.",
    )
    parser.add_argument(
        "action",
        choices=("stats", "sweep"),
        help="stats: per-stage entry counts and bytes as JSON; "
        "sweep: remove orphaned temp files",
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="cache directory to inspect",
    )
    parser.add_argument(
        "--max-age",
        type=float,
        default=store.TMP_SWEEP_AGE_SECONDS,
        metavar="SECONDS",
        help="sweep only: reclaim orphans older than this many seconds "
        f"(default: {store.TMP_SWEEP_AGE_SECONDS:.0f}; 0 sweeps "
        "everything, unsafe while writers are live)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report to PATH",
    )
    args = parser.parse_args(argv)
    if args.action == "sweep":
        swept, freed = store.sweep_orphans(args.cache_dir, age_seconds=args.max_age)
        report = {
            "cache_dir": str(args.cache_dir),
            "tmp_files": swept,
            "bytes_freed": freed,
        }
    else:
        report = store.scan_cache(args.cache_dir)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.json is not None:
        with open(args.json, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"[wrote report to {args.json}]", file=sys.stderr)
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default ``--jobs``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["lint"]:
        # The lint subcommand has its own flags; dispatch before the
        # experiment parser sees (and rejects) them.
        return _lint_main(arguments[1:])
    if arguments[:1] == ["timeline"]:
        return _timeline_main(arguments[1:])
    if arguments[:1] == ["cache"]:
        return _cache_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the G-Scalar paper's figures and tables.",
        epilog="'repro lint --help' describes the static-analysis gate; "
        "'repro timeline --help' the cycle-level introspection command; "
        "'repro cache --help' the cache inventory/GC command.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="workload problem size (default: default)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print progress while running"
    )
    parser.add_argument(
        "--bars",
        action="store_true",
        help="append text bar-chart views to fig11/fig12 output",
    )
    parser.add_argument(
        "--widths",
        action="store_true",
        help="staticdyn only: validate the static width analysis against "
        "the dynamic enc-prefix stream; exits 1 if any static claim "
        "over-promises (soundness gate)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the computed data as JSON to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=_usable_cpus(),
        metavar="N",
        help="worker processes for the benchmark matrix (default: the CPUs "
        "this process may run on; 1 is serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist figure summaries and timing/power results in DIR "
        "across runs",
    )
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="write cache/stage statistics (hits, misses, timings) to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="enable telemetry and write a Chrome trace-event file (spans "
        "plus every counter) to PATH",
    )
    parser.add_argument(
        "--chunk-events",
        type=int,
        default=None,
        metavar="N",
        help="pass each benchmark in chunks of whole warps, at most N "
        "events each unless one warp is longer (bounded memory, "
        "bit-identical output; default: one chunk per trace, one per "
        "replica at the large tier)",
    )
    args = parser.parse_args(arguments)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.chunk_events is not None and args.chunk_events < 1:
        parser.error("--chunk-events must be >= 1")
    if args.widths and args.experiment not in ("staticdyn", "all"):
        parser.error("--widths only applies to the staticdyn experiment")

    wanted = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    needs_runner = any(name in _MODULES for name in wanted)
    telemetry = None
    with contextlib.ExitStack() as stack:
        if args.trace_out is not None:
            # The trace turns the pipeline instrumentation on for the
            # whole invocation; the session scope restores the previous
            # (null) registry when main() returns, so repeated
            # in-process calls stay independent.
            from repro.obs import Telemetry, telemetry_session

            telemetry = stack.enter_context(telemetry_session(Telemetry()))
        exit_code = _experiment_main(args, wanted, needs_runner)
        if telemetry is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(telemetry, args.trace_out)
            print(f"[wrote Chrome trace to {args.trace_out}]", file=sys.stderr)
    return exit_code


def _experiment_main(
    args: argparse.Namespace,
    wanted: list[str],
    needs_runner: bool,
) -> int:
    """Run the selected experiments and write any requested outputs."""
    runner = (
        ExperimentRunner(
            scale=args.scale,
            verbose=args.verbose,
            cache_dir=args.cache_dir,
            chunk_events=args.chunk_events,
        )
        if needs_runner
        else None
    )
    if runner is not None:
        # One pass per benchmark for everything the experiments read.
        modules = [_MODULES[name] for name in wanted if name in _MODULES]
        reads = {name for m in modules for name in getattr(m, "SUMMARIES", ())}
        results = {arch for m in modules for arch in getattr(m, "ARCHITECTURES", ())}
        runner.prefetch(
            jobs=args.jobs,
            experiments=[name for name in SUMMARY_BUILDERS if name in reads],
            arches=[arch for arch in matrix_architectures() if arch in results],
        )
    json_results = []
    experiment_seconds: dict[str, float] = {}
    exit_code = 0
    for name in wanted:
        started = time.perf_counter()
        if name in _STATIC_MODULES:
            print(_STATIC_MODULES[name].render())
        else:
            # Computed once: the text, the bars and the JSON all read it.
            module = _MODULES[name]
            data = module.compute(runner)
            print(module.render(data))
            if name == "staticdyn" and args.widths:
                # Width-claim soundness gate: zero over-claims or exit 1.
                widths_data = staticdyn.compute_widths(runner)
                print()
                print(staticdyn.render_widths(widths_data))
                if widths_data.total_over_claims:
                    exit_code = 1
            if args.bars and name in ("fig11", "fig12"):
                print()
                print(_bars_for(name, data))
            if args.json is not None:
                from repro.experiments.export import (
                    export_experiment,
                    exportable_experiments,
                )

                if name in exportable_experiments():
                    json_results.append(export_experiment(name, data, args.scale))
        experiment_seconds[name] = round(time.perf_counter() - started, 6)
        if args.verbose:
            print(f"[{name}: {experiment_seconds[name]:.1f}s]", file=sys.stderr)
        print()
    if args.json is not None and json_results:
        from repro.experiments.export import write_json

        write_json(json_results, args.json)
        print(f"[wrote JSON to {args.json}]", file=sys.stderr)
    if args.stats_json is not None:
        stats = {
            "experiment": args.experiment,
            "scale": args.scale,
            "jobs": args.jobs,
            "cache_dir": args.cache_dir,
            "experiment_seconds": experiment_seconds,
        }
        if runner is not None:
            stats.update(runner.stats.to_dict())
        with open(args.stats_json, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote stats to {args.stats_json}]", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
