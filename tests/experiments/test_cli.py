"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments import store
from repro.workloads.registry import all_workloads


class TestCli:
    def test_static_tables_run(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert main(["table2"]) == 0
        assert "backprop" in capsys.readouterr().out
        assert main(["table3"]) == 0
        assert "compressor" in capsys.readouterr().out

    def test_figure_at_tiny_scale(self, capsys):
        assert main(["fig1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "LBM" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_experiment_list_is_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig8", "fig9", "fig10", "fig11", "fig12",
            "table1", "table2", "table3", "extras", "scorecard", "suite",
            "staticdyn", "stalls",
        }

    def test_zero_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--jobs", "0"])


class TestLintCommand:
    def test_all_workloads_lint_clean_at_error(self, capsys):
        assert main(["lint", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "GS-I201" in out  # scalarization summary per kernel

    def test_single_kernel_selection(self, capsys):
        assert main(["lint", "BP", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "backprop" in out
        assert "sgemm" not in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["lint", "MM", "--scale", "tiny", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {d["kernel"] for d in payload} == {"sgemm"}
        assert all(d["severity"] != "error" for d in payload)
        assert all("rule" in d for d in payload)

    def test_fail_on_warning_escalates(self, capsys):
        # LBM carries structural warnings; gating on warnings fails it.
        assert main(["lint", "LBM", "--scale", "tiny"]) == 0
        capsys.readouterr()
        assert main(["lint", "LBM", "--scale", "tiny",
                     "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_tight_register_budget_fails(self, capsys):
        assert main(["lint", "ST", "--scale", "tiny",
                     "--max-registers", "8"]) == 1
        assert "GS-E003" in capsys.readouterr().out

    def test_min_severity_hides_info(self, capsys):
        assert main(["lint", "MM", "--scale", "tiny",
                     "--min-severity", "warning"]) == 0
        out = capsys.readouterr().out
        assert "GS-I" not in out
        # The width pass's narrow-register warnings still show.
        assert "GS-W104" in out

    def test_unknown_kernel_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["lint", "NOPE"])

    def test_flat_json_format_shape_is_pinned(self, capsys):
        import json

        assert main(["lint", "MM", "--scale", "tiny",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        # One flat object per diagnostic with exactly these keys — CI
        # artifact consumers parse this shape.
        for entry in payload:
            assert set(entry) == {
                "rule", "severity", "kernel", "block", "instruction",
                "message",
            }
        assert all(entry["kernel"] == "sgemm" for entry in payload)
        rules = {entry["rule"] for entry in payload}
        assert "GS-I204" in rules  # the compressibility report is on

    def test_format_text_is_default(self, capsys):
        assert main(["lint", "MM", "--scale", "tiny",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(Exception):
            import json

            json.loads(out)

    def test_baseline_round_trip_flips_gate(self, tmp_path, capsys):
        baseline = tmp_path / "lint-baseline.json"
        # BP carries GS-W104 narrow-register warnings: gating on
        # warnings fails without a baseline...
        assert main(["lint", "BP", "--scale", "tiny",
                     "--fail-on", "warning"]) == 1
        capsys.readouterr()
        assert main(["lint", "BP", "--scale", "tiny",
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        # ...and passes once the recorded findings are suppressed.
        assert main(["lint", "BP", "--scale", "tiny",
                     "--baseline", str(baseline),
                     "--fail-on", "warning"]) == 0
        err = capsys.readouterr().err
        assert "baselined" in err

    def test_missing_baseline_file_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "BP", "--scale", "tiny",
                  "--baseline", "/nonexistent/baseline.json"])


class TestStaticdynWidths:
    def test_widths_gate_is_sound_at_tiny_scale(self, capsys):
        assert main(["staticdyn", "--widths", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "SOUND" in out and "UNSOUND" not in out
        assert "over-claims" in out

    def test_widths_flag_requires_staticdyn(self):
        with pytest.raises(SystemExit):
            main(["tables", "--widths", "--scale", "tiny"])


class TestSmStats:
    def test_repro_all_counts_sm_runs_and_reuses(self, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        # Whole-trace and chunk-streamed pairs reach the same SM memo.
        for extra in ([], ["--chunk-events", "256"]):
            argv = ["all", "--scale", "tiny", "--stats-json", str(stats_path)]
            assert main(argv + extra) == 0
            capsys.readouterr()
            counters = json.loads(stats_path.read_text())["counters"]
            # 17 benchmarks x 5 architectures.  gscalar_no_divergent
            # lowers to gscalar's op table on all 17 and static_compress
            # to theirs on 5, so 22 pairs reuse another pair's simulation.
            assert counters["sm_reuses"] == 22, extra
            assert counters["sm_runs"] == 17 * 5 - 22, extra
            # One op table per pair: lowered whole, or joined from chunks.
            assert counters["op_tables"] == 17 * 5, extra


class TestCacheAndJobs:
    def test_cache_dir_populates_and_replays(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig1", "--scale", "tiny", "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        assert len(list(cache.glob(f"*_fig1{store.ENTRY_SUFFIX}"))) == 17
        assert main(["fig1", "--scale", "tiny", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == first

    def test_stats_json_counts_cold_and_warm(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        stats_path = tmp_path / "stats.json"
        argv = [
            "fig1", "--scale", "tiny", "--jobs", "2",
            "--cache-dir", str(cache), "--stats-json", str(stats_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        cold = json.loads(stats_path.read_text())
        assert cold["jobs"] == 2
        assert cold["counters"]["trace_executions"] == 17
        assert "fig1" in cold["experiment_seconds"]
        # The workers built the summaries; the parent read them.
        assert cold["counters"]["summary_cache_misses"] == 17
        assert cold["counters"]["summary_cache_hits"] == 17
        assert main(argv) == 0
        capsys.readouterr()
        warm = json.loads(stats_path.read_text())
        assert warm["counters"] == {"summary_cache_hits": 17}

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        assert main(["fig10", "--scale", "tiny"]) == 0
        serial = capsys.readouterr().out
        cache = tmp_path / "cache"
        argv = [
            "fig10", "--scale", "tiny", "--jobs", "2", "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        # Warp-64 traces live only inside the fig10 summaries.
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            f"{spec.abbr}_tiny_fig10{store.ENTRY_SUFFIX}" for spec in all_workloads()
        )

    def test_jobs_without_cache_dir_removes_its_temporary_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        import tempfile

        from repro.experiments import fig1

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main(["fig1", "--scale", "tiny", "--jobs", "2"]) == 0
        assert "temporary cache" in capsys.readouterr().err
        assert list(tmp_path.glob("repro-cache-*")) == []

        def failing(runner):
            raise RuntimeError("experiment failed")

        monkeypatch.setattr(fig1, "compute", failing)
        with pytest.raises(RuntimeError, match="experiment failed"):
            main(["fig1", "--scale", "tiny", "--jobs", "2"])
        assert list(tmp_path.glob("repro-cache-*")) == []

    def test_fig12_jobs_prefetch_power_reports(self, tmp_path, capsys):
        import json

        assert main(["fig12", "--scale", "tiny"]) == 0
        serial = capsys.readouterr().out
        stats_path = tmp_path / "stats.json"
        argv = [
            "fig12", "--scale", "tiny", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"), "--stats-json", str(stats_path),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        # The workers simulated; the parent replayed every power report
        # fig12 reads (baseline, scalar-only and ours per benchmark).
        counters = json.loads(stats_path.read_text())["counters"]
        assert counters["result_cache_hits"] >= 3 * 17


class TestCacheCommand:
    def test_stats_reports_stage_inventory(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        assert main(["fig1", "--scale", "tiny", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["stages"]) == {"summary"}
        assert report["stages"]["summary"]["entries"] == 17
        assert report["stages"]["summary"]["bytes"] > 0
        assert report["total_bytes"] > 0
        assert report["orphans"]["tmp_files"] == 0

    def test_sweep_reclaims_debris(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "half-written.123.tmp").write_bytes(b"x" * 10)
        argv = ["cache", "sweep", "--cache-dir", str(cache), "--max-age", "0"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tmp_files"] == 1
        assert report["bytes_freed"] == 10
        assert list(cache.iterdir()) == []

    def test_json_written(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        cache = tmp_path / "cache"
        cache.mkdir()
        argv = ["cache", "stats", "--cache-dir", str(cache), "--json", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["total_bytes"] == 0

    def test_cache_dir_required(self):
        with pytest.raises(SystemExit):
            main(["cache", "stats"])


class TestTimelineCommand:
    def test_attribution_table_printed(self, capsys):
        assert main(["timeline", "bp", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "BP on baseline" in out
        for cause in ("scoreboard", "branch_shadow", "barrier",
                      "stream_exhausted", "collectors_full", "bank_conflict"):
            assert cause in out

    def test_exports_written(self, tmp_path, capsys):
        import json

        trace = tmp_path / "bp.trace.json"
        prom = tmp_path / "bp.prom"
        argv = [
            "timeline", "bp", "--scale", "tiny",
            "--trace-out", str(trace), "--metrics-out", str(prom),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert any(e.get("cat") == "issue" for e in events)
        assert any(e["name"] == "thread_name" for e in events)
        text = prom.read_text()
        assert "repro_sm_stall_scheduler_cycles_total" in text
        assert "repro_timeline_issued_total" in text

    def test_arch_and_engine_selection(self, capsys):
        argv = ["timeline", "bp", "--scale", "tiny", "--arch", "gscalar"]
        assert main(argv) == 0
        assert "gscalar (event engine)" in capsys.readouterr().out

    def test_engine_switches_removed(self):
        for flags in (["--sm-engine", "cycle"], ["--compare-engines"]):
            with pytest.raises(SystemExit):
                main(["timeline", "bp", "--scale", "tiny", *flags])

    def test_bad_capacity_rejected(self):
        with pytest.raises(SystemExit):
            main(["timeline", "bp", "--capacity", "0"])

    def test_bad_interval_rejected(self):
        with pytest.raises(SystemExit):
            main(["timeline", "bp", "--interval-cycles", "0"])
