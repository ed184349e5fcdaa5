"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

    python3 benchmarks/e2e/child.py --workload W --phase {fill,timed} \\
        --scale {small,tiny} --seed N --work-dir DIR --spawned T \\
        [--trace-out PATH]

``--spawned`` is the parent's ``time.monotonic()`` just before the
spawn; Linux's monotonic clock is system-wide, so ``setup_s`` counts
interpreter start-up.  The last stdout line is one JSON object with the
measurements, the observed outputs and the failed checks.  Only the
``timed`` phase has a timed region; with ``--trace-out`` it runs under the
span tracer and the result carries the per-layer ledger.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, import_all_repro_modules, ledger, spans_nest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Large-tier replicas streamed by ``large_stream`` per scale profile.
#: The full large tier (67 replicas of HS, 1.1M events) takes ~36 s and
#: ~540 MB per pass; 8 replicas (132,864 events) keep a pass near 3 s,
#: so one benchmark run holds several passes.
STREAM_REPLICAS = {"small": 8, "tiny": 1}
STREAM_BENCHMARK = "HS"
STREAM_CHUNK_EVENTS = 65536
SWEEP_FACTORS = (0.5, 1.0, 2.0)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the repro CLI in-process; return its exit code and stdout."""
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _observe_cli(code: int, stdout: str, stats_path: Path) -> dict:
    match = re.search(r"^(\d+) MATCH, ", stdout, re.MULTILINE)
    stats = json.loads(stats_path.read_text())
    return {
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "scorecard_match": int(match.group(1)) if match else None,
        "counters": stats.get("counters", {}),
    }


def _check_cli(observed: dict, expected: dict, warm: bool) -> list[str]:
    failures = []
    if observed["exit_code"] != 0:
        failures.append(f"repro all exited {observed['exit_code']}")
    if observed["stdout_sha256"] != expected["stdout_sha256"]:
        failures.append("repro all stdout differs from the recorded output")
    if observed["scorecard_match"] != expected["scorecard_match"]:
        failures.append(
            f"scorecard MATCH count {observed['scorecard_match']} != "
            f"{expected['scorecard_match']}"
        )
    counters = observed["counters"]
    executions = counters.get("trace_executions", 0)
    wanted = 0 if warm else expected["trace_executions"]
    if executions != wanted:
        failures.append(f"{executions} trace executions, expected {wanted}")
    if warm and counters.get("result_cache_hits", 0) != expected["result_cache_hits"]:
        failures.append(
            f"{counters.get('result_cache_hits', 0)} result sidecar hits, "
            f"expected {expected['result_cache_hits']}"
        )
    return failures


class PaperRun:
    """``repro all --widths``: cold (no cache) or against a filled cache."""

    def __init__(self, args, warm: bool):
        self.argv = ["all", "--scale", args.scale, "--widths"]
        if warm:
            self.argv += ["--cache-dir", str(Path(args.work_dir) / "cache")]
        self.stats_path = Path(args.work_dir) / "stats.json"
        # paper_warm's fill phase is a cold run and is checked as one.
        self.warm = warm and args.phase == "timed"

    def setup(self) -> None:
        pass

    def timed(self) -> dict:
        code, stdout = _cli(self.argv + ["--stats-json", str(self.stats_path)])
        return _observe_cli(code, stdout, self.stats_path)

    def check(self, observed: dict, expected: dict) -> list[str]:
        return _check_cli(observed, expected["paper"], self.warm)

    def events(self, expected: dict) -> int:
        return expected["paper"]["events"]


class DesignSweep:
    """Latency and energy sweeps over a prefetched runner."""

    def __init__(self, args):
        self.args = args

    def setup(self) -> None:
        from repro.config import ArchitectureConfig
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(scale=self.args.scale)
        self.runner.prefetch(
            arches=(
                ArchitectureConfig.baseline(),
                ArchitectureConfig.alu_scalar(),
                ArchitectureConfig.gscalar(),
            )
        )

    def timed(self) -> dict:
        from repro.experiments import sensitivity

        latency = sensitivity.sweep_latency_parameter(
            self.runner, "alu_latency", SWEEP_FACTORS
        )
        energy = sensitivity.sweep_energy_parameter(
            self.runner, "rf_full_access_pj", SWEEP_FACTORS
        )
        return {
            "alu_latency": [p.mean_gscalar_gain for p in latency],
            "rf_full_access_pj": [p.mean_gscalar_gain for p in energy],
            "counters": self.runner.stats.counters,
        }

    def check(self, observed: dict, expected: dict) -> list[str]:
        failures = []
        unit = SWEEP_FACTORS.index(1.0)
        for name in ("alu_latency", "rf_full_access_pj"):
            gains = observed[name]
            if not all(math.isfinite(g) and g > 0 for g in gains):
                failures.append(f"{name}: non-positive gain in {gains}")
            if gains != expected["design_sweep"][name]:
                failures.append(f"{name}: gains {gains} differ from the recorded ones")
        if observed["alu_latency"][unit] != observed["rf_full_access_pj"][unit]:
            failures.append("the two sweep points at 1.0 differ")
        return failures

    def events(self, expected: dict) -> int:
        return expected["paper"]["events"]


class LargeStream:
    """Chunk-streamed large-tier replicas of one benchmark on G-Scalar."""

    def __init__(self, args):
        self.args = args
        self.streamed_events = 0

    def setup(self) -> None:
        from repro.experiments import runner as runner_module
        from repro.workloads import synth

        replicas = STREAM_REPLICAS[self.args.scale]

        def chunks(seed_trace, _replicas, chunk_events):
            for chunk in synth.iter_synthetic_chunks(
                seed_trace, replicas, chunk_events, seed=self.args.seed
            ):
                self.streamed_events += chunk.num_events
                yield chunk

        runner_module.iter_synthetic_chunks = chunks
        self.runner = runner_module.ExperimentRunner(
            scale="large", chunk_events=STREAM_CHUNK_EVENTS
        )
        self.runner.run(STREAM_BENCHMARK)

    def timed(self) -> dict:
        from repro.config import ArchitectureConfig

        arch = ArchitectureConfig.gscalar()
        power = self.runner.power(STREAM_BENCHMARK, arch)
        timing = self.runner.timing(STREAM_BENCHMARK, arch)
        return {
            "events": self.streamed_events,
            "cycles": timing.cycles,
            "issued_per_scheduler": list(timing.issued_per_scheduler),
            "stalls_per_scheduler": [b.as_dict() for b in timing.stalls_per_scheduler],
            "ipc_per_watt": power.ipc_per_watt,
            "total_pj": power.breakdown.total_pj,
            "counters": self.runner.stats.counters,
        }

    def check(self, observed: dict, expected: dict) -> list[str]:
        from repro.workloads.synth import DEFAULT_SEED

        failures = []
        issued = observed["issued_per_scheduler"]
        stalls = observed["stalls_per_scheduler"]
        if len(issued) != len(stalls) or not issued:
            failures.append("issued and stall breakdowns disagree on the scheduler count")
        for index, (count, breakdown) in enumerate(zip(issued, stalls)):
            if count + sum(breakdown.values()) != observed["cycles"]:
                failures.append(f"scheduler {index}: issued + stalls != cycles")
        if not observed["total_pj"] >= 0:
            failures.append(f"negative energy {observed['total_pj']}")
        if self.args.seed == DEFAULT_SEED:
            recorded = expected["large_stream"]
            for key, value in recorded.items():
                if observed[key] != value:
                    failures.append(f"{key}: {observed[key]!r} != recorded {value!r}")
        return failures

    def events(self, expected: dict) -> int:
        return self.streamed_events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cold", "paper_warm", "design_sweep", "large_stream"))
    parser.add_argument("--phase", choices=("fill", "timed"), default="timed")
    parser.add_argument("--scale", choices=("small", "tiny"), default="small")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.phase == "fill" and args.workload != "paper_warm":
        parser.error("only paper_warm has a fill phase")

    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads((HERE / "expected.json").read_text())[args.scale]
    workload = {
        "paper_cold": functools.partial(PaperRun, warm=False),
        "paper_warm": functools.partial(PaperRun, warm=True),
        "design_sweep": DesignSweep,
        "large_stream": LargeStream,
    }[args.workload](args)

    # Every workload imports the whole package during set-up, so lazy
    # imports neither land in the timed region nor differ between traced
    # and untraced iterations (the tracer must import everything first).
    import_all_repro_modules()
    workload.setup()
    if args.phase == "fill":
        # paper_warm's set-up: one cold run that writes the cache.
        observed = workload.timed()
        result = {"spawned": args.spawned, "setup_s": time.monotonic() - args.spawned}
        # Flush the cache so the timed run does not compete with writeback.
        for path in Path(args.work_dir, "cache").rglob("*"):
            if path.is_file():
                with open(path, "rb") as handle:
                    os.fsync(handle.fileno())
        result["checks"] = workload.check(observed, expected)
        print(json.dumps(result))
        return 0

    result = {"spawned": args.spawned, "setup_s": time.monotonic() - args.spawned}
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    cpu_start = _cpu_s()
    result["timed_start"] = start = time.monotonic()
    observed = workload.timed()
    wall_s = time.monotonic() - start
    result["cpu_s"] = _cpu_s() - cpu_start
    result["wall_s"] = wall_s
    if tracer is not None:
        tracer.uninstall()
        result["ledger"] = ledger(tracer.spans, wall_s)
        result["missing_targets"] = tracer.missing_targets
        result["spans_nest"] = spans_nest(tracer.spans)
        tracer.write_chrome_trace(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["events"] = workload.events(expected)
    result["observed"] = observed
    result["checks"] = workload.check(observed, expected)
    if tracer is not None and not result["spans_nest"]:
        result["checks"].append("traced spans do not nest")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
