"""Process-pool fan-out over the benchmark × (summary, architecture)
matrix.

The matrix is embarrassingly parallel at benchmark granularity: each
benchmark's trace, summaries and per-architecture timing/power results
are independent of every other benchmark's.  :func:`run_matrix` spawns
one :class:`MatrixTask` per benchmark and executes them on a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker returns
its benchmark's summaries and (timing, power) pairs in its payload, and
:meth:`~repro.experiments.runner.ExperimentRunner.prefetch` puts them
into the parent runner's memos, so no cache directory is needed and the
parent reads nothing back from disk.  The payload stays small: summaries
are count tables and results are per-pair totals, never an array the
size of a trace.  With a ``cache_dir`` the workers also store their
entries, for later processes.

Determinism: the simulator is pure numpy/python with no randomness, and
summaries and results round-trip through pickle losslessly, so figure
data computed from worker payloads is bit-identical to a serial
in-process run (DESIGN §5's determinism requirement).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.runner import ExperimentRunner, paper_architectures
from repro.obs.memory import record_peak_rss
from repro.obs.telemetry import telemetry_session
from repro.power.energy import EnergyParams


@dataclass(frozen=True)
class MatrixTask:
    """Everything one worker needs to compute one benchmark.

    All fields are plain (frozen) dataclasses or builtins, so a task
    pickles cleanly under both the ``fork`` and ``spawn`` start methods.
    ``cache_dir`` (optional) is where the worker stores its entries.
    ``telemetry`` asks the worker to run with an enabled telemetry
    registry and ship its snapshot back in the return payload.
    ``chunk_events`` propagates the parent's streaming chunk size, so
    workers stream their pairs the same way the parent would.
    ``experiments`` holds the names of the summaries to build: keys of
    :data:`repro.experiments.summary.BUILDERS`, not experiment names.
    """

    abbr: str
    scale: str
    cache_dir: str | None
    experiments: tuple[str, ...]
    arches: tuple[ArchitectureConfig, ...]
    config: GpuConfig | None
    params: EnergyParams | None
    telemetry: bool = False
    chunk_events: int | None = None


def _run_task(task: MatrixTask) -> dict:
    runner = ExperimentRunner(
        scale=task.scale,
        config=task.config,
        params=task.params,
        cache_dir=task.cache_dir,
        chunk_events=task.chunk_events,
    )
    abbr = task.abbr
    payload = {
        "summaries": {
            (abbr, name): runner.summary(abbr, name) for name in task.experiments
        },
        "timing": {
            (abbr, arch.name): runner.timing(abbr, arch) for arch in task.arches
        },
        "power": {
            (abbr, arch.name): runner.power(abbr, arch) for arch in task.arches
        },
    }
    record_peak_rss(runner.stats.telemetry)
    snapshot = runner.stats.telemetry.snapshot()
    # This worker's peak is its own series, so the parent's unlabelled
    # gauge stays the parent's high-water mark.
    pid = [["pid", str(os.getpid())]]
    snapshot["gauges"] = [
        [name, pid if name == "peak_rss_bytes" and not labels else labels, value]
        for name, labels, value in snapshot["gauges"]
    ]
    payload["telemetry"] = snapshot
    return payload


def execute_task(task: MatrixTask) -> dict:
    """Worker entry point: compute one benchmark's summaries and results.

    Returns the payload ``{"summaries", "timing", "power", "telemetry"}``:
    the first three map ``(task.abbr, summary or architecture name)``
    to the values the parent runner memoizes under the same keys, and
    ``telemetry`` is the worker registry's
    :meth:`~repro.obs.telemetry.Telemetry.snapshot` (its cache and stage
    counters, stage spans and its peak-RSS gauge, labelled with the
    worker's ``pid``), which
    :meth:`~repro.experiments.runner.RunnerStats.merge` reads.  With
    ``task.telemetry`` set, the whole task runs under an enabled
    process-global registry — scoped with
    :class:`~repro.obs.telemetry.telemetry_session` so a reused pool
    worker starts the next task with a clean slate — and the runner
    binds its stats to it, so the snapshot also carries the instrumented
    pipeline's counters, histograms and per-warp spans.
    """
    if task.telemetry:
        with telemetry_session():
            return _run_task(task)
    return _run_task(task)


def run_matrix(
    names: Sequence[str],
    scale: str,
    cache_dir: str | Path | None = None,
    jobs: int = 2,
    experiments: Sequence[str] = (),
    arches: Sequence[ArchitectureConfig] | None = None,
    config: GpuConfig | None = None,
    params: EnergyParams | None = None,
    progress: Callable[[str, int, int], None] | None = None,
    telemetry: bool = False,
    chunk_events: int | None = None,
) -> list[dict]:
    """Compute the summaries ``experiments`` names (keys of
    :data:`repro.experiments.summary.BUILDERS`) and the results of
    ``arches`` for every benchmark on a pool of ``jobs`` processes.

    Returns one :func:`execute_task` payload per benchmark, in
    completion order.  ``progress`` (optional) is called in the parent
    as ``progress(abbr, completed, total)`` each time a benchmark
    finishes, in completion order.  With ``cache_dir`` set, workers
    also store their entries there.  With ``telemetry`` set, every
    worker records into an enabled registry.  ``chunk_events`` makes
    workers stream their compute in chunks.  The first worker exception
    cancels the tasks not yet started and is re-raised once the running
    ones finish; a worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    arch_list = tuple(arches) if arches is not None else paper_architectures()
    tasks = [
        MatrixTask(
            abbr=abbr,
            scale=scale,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            experiments=tuple(experiments),
            arches=arch_list,
            config=config,
            params=params,
            telemetry=telemetry,
            chunk_events=chunk_events,
        )
        for abbr in names
    ]
    payloads = []
    with ProcessPoolExecutor(max_workers=max(1, min(int(jobs), len(tasks)))) as pool:
        pending = {pool.submit(execute_task, task): task for task in tasks}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    task = pending.pop(future)
                    payloads.append(future.result())
                    if progress is not None:
                        progress(task.abbr, len(payloads), len(tasks))
        except BaseException:
            # Fail fast: drop the queued tasks instead of letting the
            # pool's exit run the rest of the matrix first.
            pool.shutdown(cancel_futures=True)
            raise
    return payloads
