"""Tests for the command-line interface."""

import pytest

from repro.cli import _MODULES, EXPERIMENTS, main
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


def count_uniformity_analyses(monkeypatch) -> list:
    """Wrap ``analyze_uniformity`` where it is called; the returned
    list gains one entry (the kernel's name) per analysis."""
    from repro.analysis.static_ import uniformity, widths

    calls = []
    analyze = uniformity.analyze_uniformity

    def counted(kernel):
        calls.append(kernel.name)
        return analyze(kernel)

    monkeypatch.setattr(uniformity, "analyze_uniformity", counted)
    monkeypatch.setattr(widths, "analyze_uniformity", counted)
    return calls


class TestOneUniformityAnalysisPerKernel:
    """The lint passes and the width analysis share one uniformity
    result per kernel through ``AnalysisContext.uniformity``."""

    def test_lint_analyzes_each_kernel_once(self, monkeypatch, capsys):
        calls = count_uniformity_analyses(monkeypatch)
        assert main(["lint"]) == 0
        capsys.readouterr()
        assert len(calls) == 17
        assert len(set(calls)) == 17

    def test_lint_json_matches_one_analysis_per_pass(self, monkeypatch, capsys):
        from repro.analysis.static_ import uniformity
        from repro.analysis.static_.framework import AnalysisContext

        assert main(["lint", "--format=json"]) == 0
        shared = capsys.readouterr().out
        # Each read of the context recomputes the analysis, as when
        # every pass ran its own.
        monkeypatch.setattr(
            AnalysisContext,
            "uniformity",
            property(lambda ctx: uniformity.analyze_uniformity(ctx.kernel)),
        )
        calls = count_uniformity_analyses(monkeypatch)
        assert main(["lint", "--format=json"]) == 0
        assert len(calls) == 34
        assert capsys.readouterr().out == shared

    def test_widths_run_analyzes_each_kernel_once(self, monkeypatch, capsys):
        calls = count_uniformity_analyses(monkeypatch)
        assert main(["all", "--scale", "small", "--widths", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert len(calls) == 17


def count_site_joins(monkeypatch) -> list:
    """Wrap ``annotate_sites`` where it is called; the returned list
    gains one entry (the kernel's name) per join."""
    from repro.experiments import staticdyn, summary

    calls = []
    annotate = staticdyn.annotate_sites

    def counted(kernel, columns):
        calls.append(kernel.name)
        return annotate(kernel, columns)

    monkeypatch.setattr(staticdyn, "annotate_sites", counted)
    monkeypatch.setattr(summary, "annotate_sites", counted)
    return calls


class TestOneSiteJoinPerBenchmark:
    """staticdyn's two rows share one join of the trace to its static
    sites, and extras reads staticdyn's coverage."""

    def test_widths_run_joins_each_benchmark_once(self, monkeypatch, capsys):
        calls = count_site_joins(monkeypatch)
        assert main(["all", "--scale", "small", "--widths", "--jobs", "1"]) == 0
        capsys.readouterr()
        assert len(calls) == 17
        assert len(set(calls)) == 17


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
        assert len(list(cache.glob(f"*_counts{store.ENTRY_SUFFIX}"))) == 17
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
        assert "fig1" in cold["experiment_seconds"]
        # The workers built and stored the summaries and returned them:
        # the parent read none back.
        assert cold["counters"] == {"summary_cache_misses": 17, "trace_executions": 17}
        assert main(argv) == 0
        capsys.readouterr()
        warm = json.loads(stats_path.read_text())
        assert warm["counters"] == {"summary_cache_hits": 17}

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        assert main(["fig10", "--scale", "tiny", "--jobs", "1"]) == 0
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

    def test_jobs_without_cache_dir_writes_no_files(
        self, tmp_path, capsys, monkeypatch
    ):
        import tempfile

        assert main(["fig1", "--scale", "tiny", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        assert main(["fig1", "--scale", "tiny", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "temporary cache" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("affinity", [1, 3, None])
    def test_jobs_default_to_the_usable_cpus(
        self, tmp_path, capsys, monkeypatch, affinity
    ):
        """``--jobs`` defaults to the CPUs in the process's affinity
        mask, or to ``os.cpu_count()`` where the platform has none."""
        import json
        import os

        from repro.experiments.runner import ExperimentRunner

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        else:
            cpu_set = set(range(affinity))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpu_set)
        cpus = affinity or 3
        prefetched = []
        prefetch = ExperimentRunner.prefetch

        def spy(runner, **kwargs):
            prefetched.append(kwargs["jobs"])
            return prefetch(runner, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "prefetch", spy)
        stats_path = tmp_path / "stats.json"
        argv = ["fig1", "--scale", "tiny", "--stats-json", str(stats_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert json.loads(stats_path.read_text())["jobs"] == cpus
        # One CPU keeps the serial path: no pool is started.
        assert prefetched == ([] if cpus == 1 else [cpus])

    def test_fig12_jobs_prefetch_power_reports(self, tmp_path, capsys):
        import json

        assert main(["fig12", "--scale", "tiny", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        stats_path = tmp_path / "stats.json"
        argv = [
            "fig12", "--scale", "tiny", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"), "--stats-json", str(stats_path),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        # The workers simulated, stored and returned every pair fig12
        # reads (baseline, ALU-scalar and G-Scalar per benchmark) and its
        # summaries; the parent read none back.
        counters = json.loads(stats_path.read_text())["counters"]
        assert counters["result_cache_misses"] == 3 * 17
        assert counters["summary_cache_misses"] == 17
        assert not [name for name in counters if "hits" in name]


class TestPrefetchReadsWhatComputeReads:
    """``--jobs N`` prefetches the summaries and the results of the
    architectures the experiments asked for read, and no others."""

    @pytest.fixture(scope="class")
    def tiny_runner(self):
        from repro.experiments.runner import ExperimentRunner

        return ExperimentRunner(scale="tiny")

    @pytest.mark.parametrize(
        "name", ["fig11", "fig12", "extras", "stalls", "scorecard"]
    )
    def test_constant_names_the_architectures_compute_reads(
        self, tiny_runner, monkeypatch, name
    ):
        import importlib

        module = importlib.import_module(f"repro.experiments.{name}")
        read = set()
        for method in ("timing", "power"):
            real = getattr(tiny_runner, method)

            def spy(abbr, arch, real=real):
                read.add(arch)
                return real(abbr, arch)

            monkeypatch.setattr(tiny_runner, method, spy)
        monkeypatch.setattr(tiny_runner, "benchmark_names", lambda: ["HS"])
        module.compute(tiny_runner)
        assert read == set(module.ARCHITECTURES)

    @pytest.mark.parametrize("name", list(_MODULES))
    def test_constant_names_the_summaries_compute_reads(
        self, tiny_runner, monkeypatch, name
    ):
        """fig11 and stalls read no summary and have no constant."""
        module = _MODULES[name]
        read = set()
        real = tiny_runner.summary

        def spy(abbr, summary):
            read.add(summary)
            return real(abbr, summary)

        monkeypatch.setattr(tiny_runner, "summary", spy)
        monkeypatch.setattr(tiny_runner, "benchmark_names", lambda: ["HS"])
        module.compute(tiny_runner)
        if name == "staticdyn":
            module.compute_widths(tiny_runner)
        assert read == set(getattr(module, "SUMMARIES", ()))

    def test_suite_reads_the_count_table_fig1_stored(
        self, tmp_path, capsys, monkeypatch
    ):
        """Figure 1 and the suite read one ``counts`` summary: each
        pooled run prefetches it, and a suite run after fig1 on the same
        cache hits all 17 and executes nothing."""
        import json

        from repro.experiments.runner import ExperimentRunner

        prefetched = []
        prefetch = ExperimentRunner.prefetch

        def spy(runner, **kwargs):
            prefetched.append(list(kwargs["experiments"]))
            return prefetch(runner, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "prefetch", spy)
        stats_path = tmp_path / "stats.json"
        flags = [
            "--scale", "tiny", "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--stats-json", str(stats_path),
        ]
        assert main(["fig1"] + flags) == 0
        assert main(["suite"] + flags) == 0
        capsys.readouterr()
        assert prefetched == [["counts"], ["counts"]]
        counters = json.loads(stats_path.read_text())["counters"]
        assert counters == {"summary_cache_hits": 17}

    @pytest.mark.parametrize("name", ["extras", "stalls"])
    def test_pooled_run_builds_only_the_pairs_it_reads(
        self, tmp_path, capsys, name
    ):
        import json

        stats_path = tmp_path / "stats.json"
        argv = [name, "--scale", "tiny", "--jobs", "2", "--stats-json", str(stats_path)]
        assert main(argv) == 0
        capsys.readouterr()
        counters = json.loads(stats_path.read_text())["counters"]
        # Two architectures per benchmark (baseline and static_compress
        # for extras, baseline and gscalar for stalls), none shared.
        assert counters["op_tables"] == 2 * 17
        assert counters["sm_runs"] == 2 * 17


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
        argv = ["timeline", "bp", "--scale", "tiny", "--trace-out", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert any(e.get("cat") == "issue" for e in events)
        assert any(e["name"] == "thread_name" for e in events)

    @pytest.mark.parametrize("interval", [None, 64])
    def test_trace_carries_interval_track_and_attribution(
        self, interval, tmp_path, capsys
    ):
        """The ``timeline`` counter track samples each interval at its
        first cycle and sums to the run's issued instructions; the
        attribution counters tile cycles x schedulers."""
        import json

        from repro.config import GpuConfig, architecture_by_name
        from repro.experiments.runner import ExperimentRunner
        from repro.obs import DEFAULT_INTERVAL_CYCLES

        trace = tmp_path / "bp.trace.json"
        argv = ["timeline", "bp", "--scale", "tiny", "--trace-out", str(trace)]
        if interval is not None:
            argv += ["--interval-cycles", str(interval)]
        assert main(argv) == 0
        capsys.readouterr()
        width = interval or DEFAULT_INTERVAL_CYCLES
        counters = [e for e in json.loads(trace.read_text())["traceEvents"]
                    if e["ph"] == "C"]
        samples = [e for e in counters if e["name"] == "timeline"]
        assert [e["ts"] for e in samples] == [
            index * width for index in range(len(samples))
        ]
        assert all(
            set(e["args"]) == {"issued", "occupancy_warp_cycles"} for e in samples
        )
        result = ExperimentRunner(scale="tiny").timeline(
            "BP", architecture_by_name("baseline"), None
        )
        issued = sum(result.issued_per_scheduler)
        assert sum(e["args"]["issued"] for e in samples) == issued
        by_name = {e["name"]: e["args"] for e in counters if e["name"] != "timeline"}
        assert by_name["sm_cycles"] == {"sm=0": result.cycles}
        tiled = sum(by_name["sm_stall_scheduler_cycles"].values()) + sum(
            by_name["sm_issued_instructions"].values()
        )
        assert tiled == result.cycles * GpuConfig().schedulers_per_sm
        assert sum(by_name["sm_issued_instructions"].values()) == issued
        assert by_name["timeline_events_recorded"]["sm=0"] > 0

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
