"""Tests for the process-pool experiment engine.

The heavyweight guarantee — parallel prefetch produces *bit-identical*
figure data to the serial in-process path (DESIGN §5 determinism) — is
checked on a benchmark subset at tiny scale so the pool spin-up stays
cheap inside the unit suite.
"""

import pytest

from repro.analysis.halfwarp import chunk_scalar_stats
from repro.experiments.parallel import MatrixTask, execute_task, run_matrix
from repro.experiments.runner import ExperimentRunner, paper_architectures

SUBSET = ["HS", "PF"]


class TestExecuteTask:
    def test_worker_fills_cache_and_reports_stats(self, tmp_path):
        task = MatrixTask(
            abbr="HS",
            scale="tiny",
            cache_dir=str(tmp_path),
            warp_sizes=(32, 64),
            arches=(paper_architectures()[0],),
            config=None,
            params=None,
        )
        stats = execute_task(task)
        assert stats["counters"]["trace_executions"] == 2  # warp 32 + 64
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert (tmp_path / "HS_tiny_w64.v5.json").exists()
        assert (tmp_path / "HS_tiny_ccols.v5.json").exists()
        assert (tmp_path / "HS_tiny_results_baseline.v5.json").exists()


class TestRunMatrix:
    def test_parallel_matrix_matches_serial(self, tmp_path):
        serial = ExperimentRunner(scale="tiny")
        stats = run_matrix(
            names=SUBSET,
            scale="tiny",
            cache_dir=tmp_path,
            jobs=2,
            warp_sizes=(32, 64),
        )
        assert stats.trace_executions == 2 * len(SUBSET)
        parallel = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for abbr in SUBSET:
            run_s = serial.run(abbr)
            run_p = parallel.run(abbr)
            assert run_s.columnar.masks.tolist() == run_p.columnar.masks.tolist()
            # Figure-10 data: chunk-scalar fractions from both warp sizes.
            for warp_size in (32, 64):
                trace_s = serial.trace_with_warp_size(abbr, warp_size)
                trace_p = parallel.trace_with_warp_size(abbr, warp_size)
                assert (
                    chunk_scalar_stats(trace_s, 16).chunk_scalar_fraction
                    == chunk_scalar_stats(trace_p, 16).chunk_scalar_fraction
                )
            # Figure-11 data: power efficiency on every architecture.
            for arch in paper_architectures():
                report_s = serial.power(abbr, arch)
                report_p = parallel.power(abbr, arch)
                assert report_s.ipc_per_watt == report_p.ipc_per_watt
                assert report_s.cycles == report_p.cycles
        # The parent replayed everything from cache: no re-execution.
        assert parallel.stats.trace_executions == 0

    def test_progress_callback_sees_every_benchmark(self, tmp_path):
        seen = []
        run_matrix(
            names=SUBSET,
            scale="tiny",
            cache_dir=tmp_path,
            jobs=2,
            warp_sizes=(32,),
            arches=(),
            progress=lambda abbr, done, total: seen.append((abbr, done, total)),
        )
        assert sorted(abbr for abbr, _, _ in seen) == sorted(SUBSET)
        assert [done for _, done, _ in seen] == [1, 2]
        assert all(total == len(SUBSET) for _, _, total in seen)


class TestPrefetch:
    def test_parallel_prefetch_requires_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        with pytest.raises(ValueError, match="cache_dir"):
            runner.prefetch(names=SUBSET, jobs=2)

    def test_serial_prefetch_without_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        stats = runner.prefetch(names=["HS"], jobs=1, arches=())
        assert stats.trace_executions == 1
        assert "HS" in runner._runs

    def test_warm_prefetch_reports_zero_reexecutions(self, tmp_path):
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        cold.prefetch(names=SUBSET, jobs=2, warp_sizes=(32, 64))
        assert cold.stats.trace_executions == 2 * len(SUBSET)
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        warm.prefetch(names=SUBSET, jobs=2, warp_sizes=(32, 64))
        assert warm.stats.trace_executions == 0
        assert warm.stats.counters["trace_cache_hits"] >= 2 * len(SUBSET)

    def test_prefetch_normalizes_names(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.prefetch(names=["hs"], jobs=1, arches=())
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert runner.run("HS").abbr == "HS"
        assert runner.stats.trace_executions == 1
