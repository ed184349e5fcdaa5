"""Tests for the streaming memory check's command line."""

import json

from repro.scalar import bench


class TestCli:
    def test_min_speedup_gate_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code = bench.main(
            [
                "HS",
                "--scale",
                "tiny",
                "--chunk-events",
                "64",
                "--min-speedup",
                "1e9",
                "--json",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["mode"] == "streaming"
        assert report["min_speedup_required"] == 1e9
        assert report["worst_speedup"] < 1e9
        assert [result["benchmark"] for result in report["results"]] == ["HS"]
