"""CLI surface of the telemetry subsystem.

Covers the global ``--trace-out`` flag on the experiment command (the
one telemetry file: spans plus every counter), the options that
telemetry no longer has, and the ``--stats-json`` compatibility pin
for the RunnerStats migration.
"""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.obs.telemetry import NULL_TELEMETRY, get_telemetry


def counter_events(path):
    """Name -> series of the counter events in a written Chrome trace."""
    events = json.loads(path.read_text())["traceEvents"]
    return {event["name"]: event["args"] for event in events if event["ph"] == "C"}


class TestExperimentTelemetryFlags:
    def test_trace_carries_counter_events(self, tmp_path, capsys):
        trace_path = tmp_path / "fig1.trace.json"
        code = main(["fig1", "--scale", "tiny", "--trace-out", str(trace_path)])
        assert code == 0
        assert json.loads(trace_path.read_text())["traceEvents"]
        counters = counter_events(trace_path)
        for family in ("scalar_class", "enc_prefix", "runner_events"):
            assert counters.get(family), family
        assert counters["runner_events"]["event=trace_executions"] == 17
        assert get_telemetry() is NULL_TELEMETRY

    def test_trace_out_restores_null_registry(self, tmp_path, monkeypatch, capsys):
        """The session scope puts the null registry back also when the run
        raises, and no trace is written for the failed run."""

        def failing_run(*args):
            assert get_telemetry() is not NULL_TELEMETRY
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "_experiment_main", failing_run)
        trace_path = tmp_path / "fig1.trace.json"
        with pytest.raises(RuntimeError, match="run failed"):
            main(["fig1", "--scale", "tiny", "--trace-out", str(trace_path)])
        assert get_telemetry() is NULL_TELEMETRY
        assert not trace_path.exists()

    def test_fig11_trace_carries_the_paper_families(self, tmp_path, capsys):
        """The families behind Figures 9, 11 and 12 and the enc-prefix
        distribution, energy for each paper architecture."""
        trace_path = tmp_path / "fig11.trace.json"
        assert main(["fig11", "--scale", "tiny", "--trace-out", str(trace_path)]) == 0
        counters = counter_events(trace_path)
        for family in (
            "scalar_class", "enc_prefix", "regfile_bank_activations", "energy_pj",
        ):
            assert counters.get(family), family
        arches = {
            dict(pair.split("=") for pair in series.split(","))["arch"]
            for series in counters["energy_pj"]
        }
        assert arches == {
            "baseline", "alu_scalar", "gscalar", "gscalar_no_divergent",
        }

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
    def test_lint_json_shape_unchanged_with_metrics(self, tmp_path, capsys):
        code = main(["lint", "BP", "--format=json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {d["kernel"] for d in payload} == {"backprop"}


class TestRemovedTelemetryOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "bp", "--scale", "tiny"],
            ["fig1", "--scale", "tiny", "--events-out", "e.jsonl"],
            ["fig1", "--scale", "tiny", "--metrics-out", "m.prom"],
            ["timeline", "bp", "--scale", "tiny", "--metrics-out", "m.prom"],
            ["lint", "BP", "--metrics-out", "m.prom"],
        ],
        ids=["profile", "events-out", "exp-metrics-out", "timeline-metrics-out",
             "lint-metrics-out"],
    )
    def test_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert list(tmp_path.iterdir()) == []


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
