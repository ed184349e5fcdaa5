"""Shared helpers for the figure/table regeneration benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper,
prints the same rows/series the paper reports, and asserts the
qualitative shape (who wins, roughly by how much, where crossovers
fall).  Absolute numbers differ from the paper — the substrate is a
Python simulator, not the authors' GPGPU-Sim + GPUWattch stack — but
the shape must hold.

Heavy computations run through ``benchmark.pedantic(rounds=1)`` so the
harness reports wall-clock per figure without re-running multi-second
simulations dozens of times.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.summary import BUILDERS as SUMMARY_BUILDERS

#: Scale used by the figure benches.  "small" (16 warps/benchmark) keeps
#: a full regeneration within seconds per figure while preserving every
#: shape the assertions check; pass --paper-scale for the full runs.
BENCH_SCALE = "small"


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run figure benches at the full 'default' workload scale",
    )
    parser.addoption(
        "--bench-cache-dir",
        default=None,
        metavar="DIR",
        help="persist traces/results in DIR so repeated bench runs skip "
        "functional re-execution (fingerprint-checked, safe across edits)",
    )
    parser.addoption(
        "--bench-jobs",
        type=int,
        default=1,
        metavar="N",
        help="prefetch the benchmark matrix with N worker processes "
        "before benching (requires --bench-cache-dir for N > 1)",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    return "default" if request.config.getoption("--paper-scale") else BENCH_SCALE


@pytest.fixture(scope="session")
def shared_runner(request, bench_scale) -> ExperimentRunner:
    """One runner shared by all benches: traces execute exactly once.

    With ``--bench-cache-dir`` the figure summaries and timing/power
    results persist on disk, fingerprinted, and ``--bench-jobs N``
    warms that cache across N processes up front.
    """
    cache_dir = request.config.getoption("--bench-cache-dir")
    jobs = request.config.getoption("--bench-jobs")
    runner = ExperimentRunner(scale=bench_scale, cache_dir=cache_dir)
    if jobs > 1:
        # The summaries feed the figure benches; the four paper
        # architectures feed bench_fig11 and the ablations.
        runner.prefetch(jobs=jobs, experiments=SUMMARY_BUILDERS)
    return runner


def run_once(benchmark, func, *args):
    """Measure one invocation of an expensive figure computation."""
    return benchmark.pedantic(func, args=args, rounds=1, iterations=1)
