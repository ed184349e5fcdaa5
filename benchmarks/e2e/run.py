"""End-to-end benchmark of the G-Scalar reproduction.

    python3 benchmarks/e2e/run.py --workload paper_cold --seed 1 \\
        --seconds 10 --trace 0 [--scale small] [--json report.json]

Runs one workload for ``--seconds`` seconds as a series of iterations,
each in a fresh interpreter (``child.py``), one after another, and
checks every iteration's outputs.  Prints every metric as a
``workload.metric: value unit`` line and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (medians over iterations); ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
ledger of the traced ones plus the tracing overhead.

Times are reported at a reference CPU speed.  The run pins itself, its
children and a speed probe (``probe.py``) to one CPU; each time window
is rescaled by ``PROBE_REF_S`` over the probe's mean kernel time inside
that window, which removes the host's speed swings (see README.md).

Exit status: 0 when every check passed, 112 when a check or an
iteration failed (the result line is still printed), 111 when the run
could not be set up (nothing is printed).  ``--json`` appends the run,
with every sample, to a report file that ``compare.py`` reads.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import EVENT_LAYERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("paper_cold", "paper_warm", "design_sweep", "large_stream")

#: The default replica seed of ``repro.workloads.synth``.
DEFAULT_SEED = 0x675C

#: A run never starts an iteration it could not finish within this many
#: seconds of its start, and kills a child still running at that point.
RUN_BUDGET_S = 170.0

#: Probe kernel time on the reference CPU every reported time is scaled to.
PROBE_REF_S = 0.0005

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer() -> dict[str, str]:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = "s"
        metrics[f"{layer}.calls"] = "count"
        if layer.startswith("experiments."):
            metrics[f"{layer}.total_s"] = "s"
        if layer in EVENT_LAYERS:
            metrics[f"{layer}.events"] = "count"
            metrics[f"{layer}.events_per_s"] = "events/s"
    metrics.update(
        {
            "timing.sm.sim_cycles": "cycles",
            "timing.sm.sim_cycles_per_s": "cycles/s",
            "store.read.bytes_mapped": "bytes",
            "store.read.bytes_deserialized": "bytes",
            "store.read.hit_ratio": "ratio",
            "traced_wall_s": "s",
            "unattributed_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return metrics


#: Per-layer metrics of the traced iterations: name -> unit.
PER_LAYER = _per_layer()


@dataclass
class Context:
    workload: str
    seed: int
    scale: str
    env: dict
    tmp_root: Path
    trace_path: Path


def _child_env(tmp_root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp_root),
    )
    return env


def spawn(ctx: Context, phase: str, work_dir: Path, traced: bool, deadline: float) -> dict:
    """Run one child phase; its result dict, with ``failures`` listed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", ctx.workload, "--phase", phase, "--scale", ctx.scale,
        "--seed", str(ctx.seed), "--work-dir", str(work_dir),
    ]
    if traced:
        command += ["--trace-out", str(ctx.trace_path)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"failures": ["run budget exhausted"]}
    command += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=ctx.env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{phase} phase killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"failures": [f"{phase} phase failed ({exc}): {tail}"]}
    result["failures"] = result.pop("checks")
    return result


def run_iteration(ctx: Context, traced: bool, deadline: float) -> dict:
    """One iteration: a fresh child (after a cache-fill child for paper_warm)."""
    work_dir = Path(tempfile.mkdtemp(prefix=f"{ctx.workload}-", dir=ctx.tmp_root))
    try:
        setup = None
        if ctx.workload == "paper_warm":
            setup = spawn(ctx, "fill", work_dir, False, deadline)
            if setup["failures"]:
                return setup
        result = spawn(ctx, "timed", work_dir, traced, deadline)
        if result["failures"]:
            return result
        setup = setup or result
        result["setup_s"] = setup["setup_s"]
        result["setup_window"] = (setup["spawned"], setup["spawned"] + setup["setup_s"])
        result["timed_window"] = (result["timed_start"], result["timed_start"] + result["wall_s"])
        result["traced"] = traced
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(ctx: Context, seconds: float, trace: bool) -> list[dict]:
    """Iterate until ``seconds`` have passed (and, traced, one of each kind)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    iterations: list[dict] = []
    while True:
        began = time.monotonic()
        iteration = run_iteration(ctx, trace and len(iterations) % 2 == 1, deadline)
        iteration["duration_s"] = time.monotonic() - began
        iterations.append(iteration)
        if iteration["failures"]:
            break
        now = time.monotonic()
        done = now - start >= seconds and (not trace or len(iterations) >= 2)
        longest = max(item["duration_s"] for item in iterations)
        if done or now + longest > deadline:
            break
    return iterations


class SpeedProbe:
    """``probe.py`` running for the length of a ``with`` block."""

    def __init__(self, out: Path, env: dict):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(out)], env=env,
            stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode == 0:
            self.samples = json.loads(self.out.read_text())

    def speed(self, window: tuple[float, float]) -> float | None:
        """Speed relative to the reference CPU inside ``window``.

        ``PROBE_REF_S`` over the 10%-trimmed mean kernel time of the
        samples that lie inside the window; ``None`` without samples.
        """
        start, end = window
        inside = sorted(d for t, d in self.samples if start <= t - d and t <= end)
        if not inside:
            return None
        cut = len(inside) // 10
        return PROBE_REF_S / statistics.fmean(inside[cut:len(inside) - cut])


def rescale(iterations: list[dict], probe: SpeedProbe) -> None:
    """Attach each successful iteration's set-up and timed speeds."""
    for item in iterations:
        if item["failures"]:
            continue
        item["setup_speed"] = probe.speed(item["setup_window"])
        item["timed_speed"] = probe.speed(item["timed_window"])
        if item["setup_speed"] is None or item["timed_speed"] is None:
            item["failures"].append("the speed probe took no samples")


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3}


def end_to_end_samples(item: dict) -> dict[str, float]:
    speed = item["timed_speed"]
    wall_s = item["wall_s"] * speed
    return {
        "wall_s": wall_s,
        "cpu_s": item["cpu_s"] * speed,
        "events_per_s": item["events"] / wall_s,
        "peak_rss_mb": item["peak_rss_mb"],
        "setup_s": item["setup_s"] * item["setup_speed"],
    }


def per_layer_samples(item: dict) -> dict[str, float]:
    speed = item["timed_speed"]
    sample = {}
    for name, value in item["ledger"].items():
        unit = PER_LAYER.get(name)
        if unit == "s":
            sample[name] = value * speed
        elif unit in ("events/s", "cycles/s"):
            sample[name] = value / speed
        elif unit is not None:
            sample[name] = value
    counters = item["observed"]["counters"]
    hits = sum(v for k, v in counters.items() if k.endswith("_cache_hits"))
    misses = sum(v for k, v in counters.items() if k.endswith("_cache_misses"))
    sample["store.read.bytes_mapped"] = counters.get("bytes_mapped", 0)
    sample["store.read.bytes_deserialized"] = counters.get("bytes_deserialized", 0)
    sample["store.read.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return sample


def collect(iterations: list[dict], trace: bool) -> dict[str, list[float]]:
    """Samples per reported metric from the successful iterations."""
    good = [item for item in iterations if not item["failures"]]
    plain = [item for item in good if not item["traced"]]
    traced = [item for item in good if item["traced"]]
    samples: dict[str, list[float]] = {}
    for item in traced if trace else plain:
        sample = per_layer_samples(item) if trace else end_to_end_samples(item)
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
    if trace and plain and traced:
        untraced_wall = statistics.median(i["wall_s"] * i["timed_speed"] for i in plain)
        traced_wall = statistics.median(i["wall_s"] * i["timed_speed"] for i in traced)
        samples["trace.overhead_pct"] = [100.0 * (traced_wall / untraced_wall - 1.0)]
    return samples


def append_report(path: Path, record: dict) -> None:
    report = json.loads(path.read_text()) if path.exists() else {"runs": []}
    report["runs"].append(record)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(report, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the G-Scalar reproduction.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="large_stream's replica seed (the other workloads' inputs are fixed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger of traced iterations")
    parser.add_argument("--scale", choices=("small", "tiny"), default="small",
                        help="workload scale; 'tiny' is the self-test's smoke profile")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="append this run, with every sample, to a report file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"setup failed: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 111
    build = ROOT / ".bench_build" / "e2e"
    try:
        (build / "tmp").mkdir(parents=True, exist_ok=True)
        (build / "traces").mkdir(exist_ok=True)
        tmp_root = Path(tempfile.mkdtemp(dir=build / "tmp"))
    except OSError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 111
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        env=_child_env(tmp_root),
        tmp_root=tmp_root,
        trace_path=build / "traces" / f"{args.workload}-seed{args.seed}.trace.json",
    )
    # The children and the probe inherit this affinity.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"not pinned to one CPU ({exc}); rescaling is less exact", file=sys.stderr)
    try:
        with SpeedProbe(tmp_root / "probe.json", ctx.env) as probe:
            iterations = measure(ctx, args.seconds, bool(args.trace))
        if not probe.samples:
            print("setup failed: the speed probe did not run", file=sys.stderr)
            return 111
        rescale(iterations, probe)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    samples = collect(iterations, bool(args.trace))
    summaries = {name: summarize(samples[name]) for name in units if name in samples}
    failures = [failure for item in iterations for failure in item["failures"]]
    missing = sorted({t for item in iterations for t in item.get("missing_targets", [])})
    failed = sum(1 for item in iterations if item["failures"])
    speeds = [item["timed_speed"] for item in iterations if item.get("timed_speed")]

    for name, summary in summaries.items():
        print(
            f"{args.workload}.{name}: {summary['value']!r} {units[name]} "
            f"(n={summary['n']}, q1={summary['q1']!r}, q3={summary['q3']!r})"
        )
    if speeds:
        print(f"{args.workload}.cpu_speed: {statistics.median(speeds):.3f} x reference")
    for failure in failures:
        print(f"{args.workload}.failure: {failure}")
    if missing:
        print(f"{args.workload}.missing_targets: {', '.join(missing)}")
    if args.trace and ctx.trace_path.exists():
        print(f"{args.workload}.trace_file: {ctx.trace_path.relative_to(ROOT)}")
    correct = not failures
    if args.json is not None:
        append_report(
            Path(args.json),
            {
                "workload": args.workload,
                "seed": args.seed,
                "scale": args.scale,
                "seconds": args.seconds,
                "trace": args.trace,
                "correct": correct,
                "attempted": len(iterations),
                "failed": failed,
                "failures": failures,
                "missing_targets": missing,
                "spans_nest": all(item.get("spans_nest", True) for item in iterations),
                "metrics": {
                    name: dict(summary, unit=units[name], samples=samples[name])
                    for name, summary in summaries.items()
                },
                "iterations": [
                    {
                        key: item.get(key)
                        for key in ("traced", "wall_s", "cpu_s", "setup_s",
                                    "timed_speed", "setup_speed", "peak_rss_mb")
                    }
                    for item in iterations
                ],
            },
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(iterations),
                "failed": failed,
                "metrics": {
                    name: {"value": summary["value"], "unit": units[name]}
                    for name, summary in summaries.items()
                },
            }
        )
    )
    return 0 if correct else 112


if __name__ == "__main__":
    sys.exit(main())
