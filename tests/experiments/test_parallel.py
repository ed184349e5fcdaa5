"""Tests for the process-pool experiment engine.

The heavyweight guarantee — parallel prefetch produces *bit-identical*
figure data to the serial in-process path (DESIGN §5 determinism) — is
checked on a benchmark subset at tiny scale so the pool spin-up stays
cheap inside the unit suite.
"""

import pytest

from repro.errors import WorkloadError
from repro.experiments import store
from repro.experiments.parallel import MatrixTask, execute_task, run_matrix
from repro.experiments.runner import (
    ExperimentRunner,
    matrix_architectures,
    paper_architectures,
)
from repro.experiments.summary import BUILDERS
from repro.workloads.registry import all_workloads

SUBSET = ["HS", "PF"]
SUMMARIES = tuple(BUILDERS)


class TestExecuteTask:
    def test_worker_fills_cache_and_reports_stats(self, tmp_path):
        task = MatrixTask(
            abbr="HS",
            scale="tiny",
            cache_dir=str(tmp_path),
            experiments=("fig1", "fig10"),
            arches=(paper_architectures()[0],),
            config=None,
            params=None,
        )
        stats = execute_task(task)
        assert stats["counters"]["trace_executions"] == 2  # warp 32 + 64
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{stem}{store.ENTRY_SUFFIX}"
            for stem in ("HS_tiny_fig1", "HS_tiny_fig10", "HS_tiny_results_baseline")
        )


class TestRunMatrix:
    def test_parallel_matrix_matches_serial(self, tmp_path):
        serial = ExperimentRunner(scale="tiny")
        stats = run_matrix(
            names=SUBSET,
            scale="tiny",
            cache_dir=tmp_path,
            jobs=2,
            experiments=SUMMARIES,
            arches=matrix_architectures(),
        )
        assert stats.trace_executions == 2 * len(SUBSET)  # warp 32 + 64
        parallel = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for abbr in SUBSET:
            # Every figure's summary, Figure 10's warp-64 counts included.
            for name in SUMMARIES:
                assert parallel.summary(abbr, name) == serial.summary(abbr, name)
            # Figure-11 data: power efficiency on every architecture.
            for arch in matrix_architectures():
                report_s = serial.power(abbr, arch)
                report_p = parallel.power(abbr, arch)
                assert report_s == report_p
                assert parallel.timing(abbr, arch) == serial.timing(abbr, arch)
        # The parent replayed everything from cache: no re-execution.
        assert parallel.stats.trace_executions == 0
        assert parallel.stats.counters["summary_cache_hits"] == (
            len(SUBSET) * len(SUMMARIES)
        )
        assert "summary_cache_misses" not in parallel.stats.counters

    def test_progress_callback_sees_every_benchmark(self, tmp_path):
        seen = []
        run_matrix(
            names=SUBSET,
            scale="tiny",
            cache_dir=tmp_path,
            jobs=2,
            experiments=("fig1",),
            arches=(),
            progress=lambda abbr, done, total: seen.append((abbr, done, total)),
        )
        assert sorted(abbr for abbr, _, _ in seen) == sorted(SUBSET)
        assert [done for _, done, _ in seen] == [1, 2]
        assert all(total == len(SUBSET) for _, _, total in seen)

    def test_failed_worker_cancels_the_queued_tasks(self, tmp_path):
        names = ["NOPE"] + [spec.abbr for spec in all_workloads()]
        with pytest.raises(WorkloadError):
            run_matrix(
                names=names,
                scale="tiny",
                cache_dir=tmp_path,
                jobs=2,
                experiments=("fig1",),
                arches=(),
            )
        written = {path.name.split("_")[0] for path in tmp_path.glob("*.pkl")}
        assert len(written) < len(names) - 1


class TestPrefetch:
    def test_parallel_prefetch_requires_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        with pytest.raises(ValueError, match="cache_dir"):
            runner.prefetch(names=SUBSET, jobs=2)

    def test_serial_prefetch_without_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        stats = runner.prefetch(names=["HS"], jobs=1, experiments=("fig1",), arches=())
        assert stats.trace_executions == 1
        assert ("HS", "fig1") in runner._summaries
        # Nothing to warm, nothing executed.
        idle = ExperimentRunner(scale="tiny")
        assert idle.prefetch(names=["HS"], jobs=1, arches=()).trace_executions == 0

    def test_warm_prefetch_reports_zero_reexecutions(self, tmp_path):
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        cold.prefetch(names=SUBSET, jobs=2, experiments=("fig10",))
        assert cold.stats.trace_executions == 2 * len(SUBSET)
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        warm.prefetch(names=SUBSET, jobs=2, experiments=("fig10",))
        # Every entry was current: no worker was dispatched at all.
        assert warm.stats.trace_executions == 0
        assert warm.stats.counters == {}
        for abbr in SUBSET:
            warm.summary(abbr, "fig10")
        assert warm.stats.counters == {"summary_cache_hits": len(SUBSET)}

    def test_prefetch_normalizes_names(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.prefetch(names=["hs"], jobs=1, experiments=("fig1",), arches=())
        assert store.entry_path(tmp_path, "HS_tiny_fig1").exists()
        assert runner.run("HS").abbr == "HS"
        assert runner.stats.trace_executions == 1

    def test_parent_executes_nothing_after_prefetching_what_all_reads(self, tmp_path):
        """After a parallel prefetch of every summary and every
        architecture ``repro all`` reads, the parent's own reads are all
        hits: its trace executions are the workers' alone."""
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.prefetch(
            names=SUBSET, jobs=2, experiments=SUMMARIES, arches=matrix_architectures()
        )
        workers = runner.stats.trace_executions
        assert workers == 2 * len(SUBSET)
        for abbr in SUBSET:
            for name in SUMMARIES:
                runner.summary(abbr, name)
            for arch in matrix_architectures():
                runner.power(abbr, arch)
        assert runner.stats.trace_executions - workers == 0
