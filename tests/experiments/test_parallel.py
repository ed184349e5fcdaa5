"""Tests for the process-pool experiment engine.

The heavyweight guarantee — parallel prefetch produces *bit-identical*
figure data to the serial in-process path (DESIGN §5 determinism) — is
checked on a benchmark subset at tiny scale so the pool spin-up stays
cheap inside the unit suite.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.errors import WorkloadError
from repro.experiments import store
from repro.experiments.parallel import MatrixTask, execute_task, run_matrix
from repro.experiments.runner import (
    ExperimentRunner,
    RunnerStats,
    matrix_architectures,
    paper_architectures,
)
from repro.experiments.summary import BUILDERS
from repro.obs.memory import peak_rss_bytes
from repro.workloads.registry import all_workloads

SUBSET = ["HS", "PF"]
SUMMARIES = tuple(BUILDERS)


@pytest.fixture(scope="module")
def serial():
    """One in-process runner: the reference every pool result must equal."""
    return ExperimentRunner(scale="tiny")


def merged_stats(payloads) -> RunnerStats:
    stats = RunnerStats()
    for payload in payloads:
        stats.merge(payload)
    return stats


class TestExecuteTask:
    def test_worker_fills_cache_and_reports_stats(self, tmp_path, serial):
        baseline = paper_architectures()[0]
        task = MatrixTask(
            abbr="HS",
            scale="tiny",
            cache_dir=str(tmp_path),
            experiments=("counts", "fig10"),
            arches=(baseline,),
            config=None,
            params=None,
        )
        payload = execute_task(task)
        assert merged_stats([payload]).trace_executions == 2  # warp 32 + 64
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{stem}{store.ENTRY_SUFFIX}"
            for stem in ("HS_tiny_counts", "HS_tiny_fig10", "HS_tiny_results_baseline")
        )
        # The payload carries what the worker computed, keyed as the
        # parent runner memoizes it.
        assert payload["summaries"] == {
            ("HS", name): serial.summary("HS", name) for name in ("counts", "fig10")
        }
        assert payload["timing"] == {("HS", "baseline"): serial.timing("HS", baseline)}
        assert payload["power"] == {("HS", "baseline"): serial.power("HS", baseline)}


class TestRunMatrix:
    def test_parallel_matrix_matches_serial(self, tmp_path, serial):
        payloads = run_matrix(
            names=SUBSET,
            scale="tiny",
            cache_dir=tmp_path,
            jobs=2,
            experiments=SUMMARIES,
            arches=matrix_architectures(),
        )
        # Warp 32 + 64 per benchmark.
        assert merged_stats(payloads).trace_executions == 2 * len(SUBSET)
        returned = {"summaries": {}, "timing": {}, "power": {}}
        for payload in payloads:
            for memo, entries in returned.items():
                entries.update(payload[memo])
        parallel = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for abbr in SUBSET:
            # Every figure's summary, Figure 10's warp-64 counts included.
            for name in SUMMARIES:
                assert returned["summaries"][(abbr, name)] == serial.summary(abbr, name)
                assert parallel.summary(abbr, name) == serial.summary(abbr, name)
            # Figure-11 data: power efficiency on every architecture.
            for arch in matrix_architectures():
                pair = (abbr, arch.name)
                assert returned["power"][pair] == serial.power(abbr, arch)
                assert returned["timing"][pair] == serial.timing(abbr, arch)
                assert parallel.power(abbr, arch) == serial.power(abbr, arch)
                assert parallel.timing(abbr, arch) == serial.timing(abbr, arch)
        # The workers' stored entries replay: no re-execution.
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
            experiments=("counts",),
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
                experiments=("counts",),
                arches=(),
            )
        written = {path.name.split("_")[0] for path in tmp_path.glob("*.pkl")}
        assert len(written) < len(names) - 1


class TestPrefetch:
    def test_parallel_prefetch_without_cache_dir(self, serial):
        """Workers return their summaries and results into the parent's
        memos: reading them executes nothing and touches no cache."""
        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(
            names=SUBSET, jobs=2, experiments=SUMMARIES, arches=matrix_architectures()
        )
        workers = runner.stats.trace_executions
        assert workers == 2 * len(SUBSET)
        for abbr in SUBSET:
            for name in SUMMARIES:
                assert runner.summary(abbr, name) == serial.summary(abbr, name)
            for arch in matrix_architectures():
                assert runner.timing(abbr, arch) == serial.timing(abbr, arch)
                assert runner.power(abbr, arch) == serial.power(abbr, arch)
        assert runner.stats.trace_executions == workers
        assert not [name for name in runner.stats.counters if "cache" in name]

    @pytest.mark.parametrize("chunk_events", [None, 256])
    def test_peak_rss_is_one_series_per_process(self, chunk_events):
        """The unlabelled ``peak_rss_bytes`` is the parent's own peak;
        each worker's peak is a series of its own, labelled with the
        worker's pid, one per distinct worker.  A chunked worker's
        streamed passes record peaks too: they stay in its series."""
        runner = ExperimentRunner(scale="tiny", chunk_events=chunk_events)
        runner.prefetch(
            names=SUBSET, jobs=2, experiments=("counts",), arches=paper_architectures()[:1]
        )
        gauges = runner.stats.to_dict()["gauges"]
        assert 0 < gauges["peak_rss_bytes"] <= peak_rss_bytes()
        worker_pids = {
            span.pid for span in runner.stats.telemetry.spans if span.pid != os.getpid()
        }
        assert worker_pids
        labelled = {
            dict(labels)["pid"]: value
            for (name, labels), value in runner.stats.telemetry.gauges.items()
            if name == "peak_rss_bytes" and labels
        }
        assert set(labelled) == {str(pid) for pid in worker_pids}
        assert all(value > 0 for value in labelled.values())
        assert str(os.getpid()) not in labelled

    def test_serial_prefetch_without_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        stats = runner.prefetch(names=["HS"], jobs=1, experiments=("counts",), arches=())
        assert stats.trace_executions == 1
        assert ("HS", "counts") in runner._summaries
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
        runner.prefetch(names=["hs"], jobs=1, experiments=("counts",), arches=())
        assert store.entry_path(tmp_path, "HS_tiny_counts").exists()
        assert runner.run("HS").abbr == "HS"
        assert runner.stats.trace_executions == 1

    def test_parent_executes_nothing_after_prefetching_what_all_reads(self, tmp_path):
        """After a parallel prefetch of every summary and every
        architecture ``repro all`` reads, the parent's own reads come
        from the workers' payloads: its trace executions are the
        workers' alone, and it reads no cache entry back."""
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
        assert not [name for name in runner.stats.counters if "cache_hits" in name]


class TestKilledWorker:
    """A pool worker killed with SIGKILL mid-run: the prefetch ends in a
    named error within seconds, and no later run trusts a partial
    entry."""

    @staticmethod
    def kill_one_worker(killed: list):
        """A ``progress`` callback that SIGKILLs a live pool worker the
        first time a benchmark finishes (from the parent, so it works
        under any start method)."""

        def progress(abbr, done, total):
            if not killed:
                os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
                killed.append(time.monotonic())

        return progress

    def test_without_cache_dir(self):
        runner = ExperimentRunner(scale="tiny")
        killed = []
        with pytest.raises(BrokenProcessPool):
            runner.prefetch(
                jobs=2, experiments=("counts",), arches=(),
                progress=self.kill_one_worker(killed),
            )
        assert killed and time.monotonic() - killed[0] < 5

    def test_with_cache_dir_leaves_only_whole_entries(self, tmp_path, serial):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        killed = []
        with pytest.raises(BrokenProcessPool):
            runner.prefetch(
                jobs=2, experiments=("counts",), arches=(),
                progress=self.kill_one_worker(killed),
            )
        assert killed and time.monotonic() - killed[0] < 5
        names = runner.benchmark_names()
        statuses = {
            abbr: store.load_entry(
                tmp_path, *runner._summary_entry(abbr, "counts"), "summary"
            )[1]
            for abbr in names
        }
        assert set(statuses.values()) <= {"hit", "absent"}, statuses
        missing = sum(status == "absent" for status in statuses.values())
        assert missing > 0
        fresh = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        fresh.prefetch(jobs=1, experiments=("counts",), arches=())
        assert fresh.stats.trace_executions == missing
        assert fresh.stats.counters.get("summary_cache_misses", 0) == missing
        for abbr in names:
            assert fresh.summary(abbr, "counts") == serial.summary(abbr, "counts")


#: The address-space ceiling of the memory-ceiling runs.
CEILING_BYTES = 160 * 1024 * 1024


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CEILING_BYTES, CEILING_BYTES))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS")
class TestMemoryCeiling:
    """A run that outgrows a hard ``RLIMIT_AS`` ends in a named
    ``MemoryError``, serial and pooled: no hang, no stray worker.

    Its arm is ``repro fig11 --scale large --chunk-events 65536`` under
    160 MiB.  Each benchmark's one pass holds three architectures'
    op-table fragments when its stream ends (``gscalar_no_divergent``
    shares ``gscalar``'s), then joins and simulates one table at a
    time: BT's pass, the first, peaks at about 231 MiB of address space,
    where a bare ``repro`` start-up takes about 108 MiB and BT's seed
    execution 124 MiB.  Once a four-architecture large-tier pass fits
    this ceiling, this test needs another arm.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outgrown_ceiling_dies_with_a_named_error(self, jobs):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "fig11", "--scale", "large",
             "--chunk-events", "65536", "--jobs", str(jobs)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=_limit_address_space,
            start_new_session=True,
        )
        try:
            _, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the run outlived 60 s under the memory ceiling")
        assert child.returncode != 0
        assert "MemoryError" in err, err[-2000:]
        # The child led its own session: once it is gone, nothing of
        # that process group (a pool worker) may still run.
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(child.pid, signal.SIGKILL)
                pytest.fail("a pool worker outlived the failed run")
            time.sleep(0.05)
