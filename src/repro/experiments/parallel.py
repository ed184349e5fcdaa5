"""Process-pool fan-out over the benchmark × architecture matrix.

The 17-benchmark × 4-architecture matrix is embarrassingly parallel at
benchmark granularity: each benchmark's trace, classified columns and
per-architecture timing/power results are independent of every other
benchmark's.  :func:`run_matrix` spawns one :class:`MatrixTask` per
benchmark and executes them on a :class:`~concurrent.futures.\
ProcessPoolExecutor`; workers communicate with the parent exclusively
through the fingerprinted on-disk cache
(:class:`~repro.experiments.runner.ExperimentRunner` with a shared
``cache_dir``), so the parent — and any later process — replays the
whole matrix from cache without re-executing anything.

Determinism: the simulator is pure numpy/python with no randomness, and
trace serialization round-trips losslessly, so figure data computed
from a parallel-warmed cache is bit-identical to a serial in-process
run (DESIGN §5's determinism requirement).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.runner import ExperimentRunner, RunnerStats, paper_architectures
from repro.obs.telemetry import telemetry_session
from repro.power.energy import EnergyParams


@dataclass(frozen=True)
class MatrixTask:
    """Everything one worker needs to fill the cache for one benchmark.

    All fields are plain (frozen) dataclasses or builtins, so a task
    pickles cleanly under both the ``fork`` and ``spawn`` start methods.
    ``telemetry`` asks the worker to run with an enabled telemetry
    registry and ship its snapshot back in the return payload.
    ``chunk_events`` propagates the parent's streaming chunk size, so
    workers stream their pairs the same way the parent would.
    """

    abbr: str
    scale: str
    cache_dir: str
    warp_sizes: tuple[int, ...]
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
    runner.run(task.abbr)
    for warp_size in task.warp_sizes:
        runner.trace_with_warp_size(task.abbr, warp_size)
    for arch in task.arches:
        runner.power(task.abbr, arch)
    return runner.stats.to_payload()


def execute_task(task: MatrixTask) -> dict:
    """Worker entry point: warm every stage for one benchmark.

    Returns the worker runner's stats payload (counters, stage seconds
    and the telemetry registry snapshot); results themselves travel
    through the on-disk cache, not the process boundary, so the return
    payload stays small regardless of scale.  With ``task.telemetry``
    set, the whole task runs under an enabled process-global registry
    — scoped with :class:`~repro.obs.telemetry.telemetry_session` so a
    reused pool worker starts the next task with a clean slate — and
    the runner binds its stats to it, so the payload also carries the
    instrumented pipeline's counters, histograms and per-warp spans.
    """
    if task.telemetry:
        with telemetry_session():
            return _run_task(task)
    return _run_task(task)


def run_matrix(
    names: Sequence[str],
    scale: str,
    cache_dir: str | Path,
    jobs: int = 2,
    warp_sizes: Sequence[int] = (32,),
    arches: Sequence[ArchitectureConfig] | None = None,
    config: GpuConfig | None = None,
    params: EnergyParams | None = None,
    progress: Callable[[str, int, int], None] | None = None,
    telemetry: bool = False,
    chunk_events: int | None = None,
) -> RunnerStats:
    """Execute the benchmark × architecture matrix across processes.

    ``progress`` (optional) is called in the parent as ``progress(abbr,
    completed, total)`` each time a benchmark finishes, in completion
    order.  With ``telemetry`` set, every worker records into an
    enabled registry whose snapshot merges into the returned stats.
    ``chunk_events`` makes workers stream their compute in chunks.
    Returns the stats aggregated over every worker.
    """
    arch_list = tuple(arches) if arches is not None else paper_architectures()
    tasks = [
        MatrixTask(
            abbr=abbr,
            scale=scale,
            cache_dir=str(cache_dir),
            warp_sizes=tuple(warp_sizes),
            arches=arch_list,
            config=config,
            params=params,
            telemetry=telemetry,
            chunk_events=chunk_events,
        )
        for abbr in names
    ]
    stats = RunnerStats()
    jobs = max(1, min(int(jobs), len(tasks)))
    if jobs == 1:
        for index, task in enumerate(tasks):
            stats.merge(execute_task(task))
            if progress is not None:
                progress(task.abbr, index + 1, len(tasks))
        return stats
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {pool.submit(execute_task, task): task for task in tasks}
        completed = 0
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                stats.merge(future.result())
                completed += 1
                if progress is not None:
                    progress(task.abbr, completed, len(tasks))
    return stats
