"""CLI surface of the telemetry subsystem.

Covers ``repro profile``, the global ``--trace-out``/``--metrics-out``
flags on the experiment command, ``repro lint --metrics-out``, and the
``--stats-json`` compatibility pin for the RunnerStats migration.
"""

import json

from repro.cli import main
from repro.obs.telemetry import NULL_TELEMETRY, get_telemetry

#: Metric families the acceptance criteria require in profile output.
_REQUIRED_FAMILIES = (
    "repro_scalar_class_total",
    "repro_enc_prefix_total",
    "repro_regfile_bank_activations_total",
    "repro_energy_pj_total",
)


class TestProfileCommand:
    def test_profile_writes_trace_metrics_and_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "bp.trace.json"
        metrics_path = tmp_path / "bp.prom"
        events_path = tmp_path / "bp.jsonl"
        code = main(
            [
                "profile", "bp", "--scale", "tiny",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--events-out", str(events_path),
            ]
        )
        assert code == 0

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert events
        assert {"X", "M"} <= {event["ph"] for event in events}
        assert all(
            {"name", "ph", "pid", "tid"} <= set(event) for event in events
        )

        metrics = metrics_path.read_text()
        for family in _REQUIRED_FAMILIES:
            assert family in metrics, family

        lines = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert lines and all(line["type"] == "span" for line in lines)

        out = capsys.readouterr().out
        assert "Counters" in out
        assert "Spans" in out

    def test_profile_single_arch(self, tmp_path, capsys):
        metrics_path = tmp_path / "bp.prom"
        code = main(
            [
                "profile", "bp", "--scale", "tiny", "--arch", "gscalar",
                "--trace-out", str(tmp_path / "t.json"),
                "--metrics-out", str(metrics_path),
                "--no-summary",
            ]
        )
        assert code == 0
        metrics = metrics_path.read_text()
        assert 'arch="gscalar"' in metrics
        assert 'arch="baseline"' not in metrics

    def test_profile_default_output_names(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["profile", "bp", "--scale", "tiny", "--no-summary"])
        assert code == 0
        assert (tmp_path / "profile_bp.trace.json").is_file()
        assert (tmp_path / "profile_bp.prom").is_file()

    def test_profile_restores_null_registry(self, tmp_path, capsys):
        main(
            [
                "profile", "bp", "--scale", "tiny", "--no-summary",
                "--trace-out", str(tmp_path / "t.json"),
                "--metrics-out", str(tmp_path / "m.prom"),
            ]
        )
        assert get_telemetry() is NULL_TELEMETRY


class TestExperimentTelemetryFlags:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "fig1.trace.json"
        metrics_path = tmp_path / "fig1.prom"
        code = main(
            [
                "fig1", "--scale", "tiny",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        assert json.loads(trace_path.read_text())["traceEvents"]
        metrics = metrics_path.read_text()
        assert "repro_scalar_class_total" in metrics
        assert "repro_runner_events_total" in metrics
        assert get_telemetry() is NULL_TELEMETRY

    def test_disabled_by_default(self, tmp_path, capsys):
        assert main(["table1"]) == 0
        assert get_telemetry() is NULL_TELEMETRY

    def test_stage_spans_carry_benchmark_labels(self, tmp_path, capsys):
        trace_path = tmp_path / "fig1.trace.json"
        main(["fig1", "--scale", "tiny", "--trace-out", str(trace_path)])
        stage_events = [
            event
            for event in json.loads(trace_path.read_text())["traceEvents"]
            if event.get("cat") == "stage"
        ]
        assert stage_events
        assert any("benchmark" in event["args"] for event in stage_events)


class TestLintMetrics:
    def test_lint_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "lint.prom"
        code = main(["lint", "BP", "--metrics-out", str(metrics_path)])
        assert code == 0
        metrics = metrics_path.read_text()
        assert "repro_lint_kernels_total 1" in metrics
        assert "repro_lint_diagnostics_total" in metrics

    def test_lint_json_shape_unchanged_with_metrics(self, tmp_path, capsys):
        code = main(
            ["lint", "BP", "--format=json", "--metrics-out", str(tmp_path / "l.prom")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {d["kernel"] for d in payload} == {"backprop"}


class TestStatsJsonCompatibility:
    def test_stats_json_key_set_pinned(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(
            ["fig1", "--scale", "tiny", "--stats-json", str(stats_path)]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert set(stats) == {
            "experiment",
            "scale",
            "jobs",
            "cache_dir",
            "experiment_seconds",
            "counters",
            "stage_seconds",
            "gauges",
        }
        assert stats["counters"]["trace_executions"] == 17
        # Every snapshot stamps the process high-water RSS, streamed or not.
        assert stats["gauges"]["peak_rss_bytes"] > 0
        assert all(
            isinstance(value, (int, float))
            for value in stats["stage_seconds"].values()
        )
