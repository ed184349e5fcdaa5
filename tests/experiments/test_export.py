"""Tests for JSON export of experiment results."""

import json

import pytest

from repro.experiments import fig1, fig9, fig12, staticdyn
from repro.experiments.export import (
    export_experiment,
    exportable_experiments,
    write_json,
)
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


class TestExport:
    def test_every_figure_is_exportable(self):
        assert set(exportable_experiments()) == {
            "fig1", "fig8", "fig9", "fig10", "fig11", "fig12", "extras",
            "staticdyn",
        }

    def test_staticdyn_envelope(self, runner):
        envelope = export_experiment("staticdyn", staticdyn.compute(runner), "tiny")
        data = envelope["data"]
        assert len(data["benchmarks"]) == 17
        assert data["total_soundness_violations"] == 0
        for payload in data["benchmarks"].values():
            assert 0.0 <= payload["precision"] <= 1.0
            assert set(payload["static_sites"]) == {
                "provably_scalar", "possibly_scalar", "divergent",
            }

    def test_fig1_envelope(self, runner):
        envelope = export_experiment("fig1", fig1.compute(runner), "tiny")
        assert envelope["experiment"] == "fig1"
        assert envelope["scale"] == "tiny"
        data = envelope["data"]
        assert len(data["benchmarks"]) == 17
        assert "paper" in data

    def test_fig9_payload_is_json_serializable(self, runner, tmp_path):
        envelope = export_experiment("fig9", fig9.compute(runner), "tiny")
        path = tmp_path / "out.json"
        write_json([envelope], path)
        loaded = json.loads(path.read_text())
        assert loaded[0]["data"]["benchmarks"]["BP"]["half_scalar"] > 0

    def test_fig12_averages(self, runner):
        data = export_experiment("fig12", fig12.compute(runner), "tiny")["data"]
        assert data["averages"]["ours"] < 1.0
        assert set(data["averages"]) == {"scalar_rf", "wc_bdi", "ours"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            export_experiment("table1", None, "tiny")

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fig1.json"
        assert main(["fig1", "--scale", "tiny", "--json", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded[0]["experiment"] == "fig1"
