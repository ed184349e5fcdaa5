"""Tests for the classify/pipeline microbenchmark harness."""

import json

from repro.scalar import bench


class TestMedianSeconds:
    def test_warmup_iterations_are_untimed(self):
        calls = []

        def fn():
            calls.append(len(calls))

        seconds = bench._median_seconds(fn, repeats=3, warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert seconds >= 0

    def test_zero_warmup_supported(self):
        calls = []
        bench._median_seconds(lambda: calls.append(None), repeats=2, warmup=0)
        assert len(calls) == 2


class TestMeasure:
    def test_classify_measure_reports_speedup(self):
        result = bench.measure("BP", "tiny", repeats=1, warmup=0)
        assert result["benchmark"] == "BP"
        assert result["warmup"] == 0
        assert result["events"] > 0
        assert result["speedup"] > 0

    def test_pipeline_measure_covers_paper_architectures(self):
        result = bench.measure_pipeline("BP", "tiny", repeats=1, warmup=0)
        assert result["sm_simulation_excluded"] is False
        assert result["architectures"] == [
            "baseline",
            "alu_scalar",
            "gscalar_no_divergent",
            "gscalar",
        ]
        assert result["speedup"] > 0


class TestCli:
    def test_pipeline_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = bench.main(
            [
                "BP",
                "--scale",
                "tiny",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--pipeline",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "pipeline"
        assert report["warmup"] == 0
        assert len(report["results"]) == 1

    def test_min_speedup_gate_fails(self, capsys):
        code = bench.main(
            ["BP", "--scale", "tiny", "--repeats", "1", "--min-speedup", "1e9"]
        )
        assert code == 1
