"""Self-test of the benchmark harness (about 10 s).

    python3 benchmarks/e2e/selftest.py

Unit-tests the tracer's self-time arithmetic and target patching, checks
that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, and
runs the harness in its smoke profile (tiny scale, one traced iteration)
to check the printed lines, span nesting and the time ledger.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import re
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Span, Tracer, ledger, spans_nest  # noqa: E402

LINE = re.compile(r"^(?P<workload>\w+)\.(?P<name>[\w.]+): (?P<rest>.*)$")
METRIC = re.compile(r"^(?P<value>\S+) (?P<unit>\S+) \(n=\d+, q1=\S+, q3=\S+\)$")


class LedgerTest(unittest.TestCase):
    # outer [0, 10] in layer a holds inner [1, 4] (layer b), which holds
    # [2, 3] (layer b again), and [5, 6] (layer a again).
    SPANS = [
        Span("outer", "a", 0.0, 10.0, -1),
        Span("inner", "b", 1.0, 4.0, 0, events=100),
        Span("nested", "b", 2.0, 3.0, 1, events=50),
        Span("again", "a", 5.0, 6.0, 0),
    ]
    LAYERS = {"a": (), "b": ()}

    def test_self_time_is_duration_minus_children(self):
        out = ledger(self.SPANS, 12.0, self.LAYERS)
        self.assertEqual(out["a.self_s"], 7.0)
        self.assertEqual(out["b.self_s"], 3.0)
        self.assertEqual(out["unattributed_s"], 2.0)
        self.assertEqual(out["a.self_s"] + out["b.self_s"] + out["unattributed_s"], 12.0)

    def test_outermost_span_of_a_layer_counts_events_and_total(self):
        out = ledger(self.SPANS, 12.0, self.LAYERS)
        self.assertEqual(out["b.events"], 100)
        self.assertEqual(out["b.calls"], 2)
        self.assertEqual(out["a.total_s"], 10.0)
        self.assertAlmostEqual(out["b.events_per_s"], 100 / 3.0)

    def test_nesting(self):
        self.assertTrue(spans_nest(self.SPANS))
        escaped = self.SPANS + [Span("late", "b", 9.0, 11.0, 0)]
        self.assertFalse(spans_nest(escaped))


class TracerTest(unittest.TestCase):
    def test_missing_target_is_reported_not_fatal(self):
        from repro.workloads import synth

        original = synth.replicate_columnar
        tracer = Tracer()
        tracer.install(
            {
                "x": (
                    ("repro.no_such_module:f", None),
                    ("repro.simt.trace:NoSuchClass.run", None),
                    ("repro.workloads.synth:no_such_function", None),
                    ("repro.workloads.synth:replicate_columnar", "result"),
                )
            }
        )
        try:
            self.assertEqual(
                tracer.missing_targets,
                [
                    "repro.no_such_module:f",
                    "repro.simt.trace:NoSuchClass.run",
                    "repro.workloads.synth:no_such_function",
                ],
            )
            self.assertIsNot(synth.replicate_columnar, original)
        finally:
            tracer.uninstall()
        self.assertIs(synth.replicate_columnar, original)

    def test_every_layer_target_exists(self):
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.missing_targets, [])


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def setUp(self):
        build = ROOT / ".bench_build" / "e2e"
        build.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=build))
        self.report = self.tmp / "report.json"

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def harness(self, workload: str, trace: int) -> tuple[list[str], dict]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", str(trace),
             "--scale", "tiny", "--json", str(self.report)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return lines[:-1], result

    def assert_lines_parse(self, lines, workload, units):
        printed = {}
        for line in lines:
            match = LINE.match(line)
            self.assertIsNotNone(match, line)
            self.assertEqual(match["workload"], workload)
            if match["name"] in ("trace_file", "cpu_speed"):
                continue
            metric = METRIC.match(match["rest"])
            self.assertIsNotNone(metric, line)
            float(metric["value"])
            printed[match["name"]] = metric["unit"]
        self.assertEqual(printed, units)

    def test_traced_smoke_run(self):
        lines, result = self.harness("paper_cold", 1)
        self.assert_lines_parse(lines, "paper_cold", run.PER_LAYER)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        record = json.loads(self.report.read_text())["runs"][-1]
        self.assertTrue(record["spans_nest"])
        values = {name: m["value"] for name, m in record["metrics"].items()}
        attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        wall = values["traced_wall_s"]
        self.assertAlmostEqual(attributed + values["unattributed_s"], wall, delta=0.01 * wall)
        self.assertGreater(values["timing.sm.sim_cycles"], 0)

    def test_untraced_smoke_run(self):
        lines, result = self.harness("large_stream", 0)
        self.assert_lines_parse(lines, "large_stream", run.END_TO_END)
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
