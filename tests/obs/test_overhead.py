"""The disabled (null-registry) path must stay seed-equivalent.

Two layers of defence: structural tests proving the aggregation
helpers are never invoked while telemetry is disabled (so the hot
loops run exactly the seed instruction stream plus one ``enabled``
attribute read per batch), and a lenient timing bound on
:func:`measure` here.  The CI ``telemetry-smoke`` job calls ``measure``
at small scale with 9 repeats and enforces the strict 5% bound.
"""

import statistics
import time

import pytest

from repro.experiments.runner import paper_architectures
from repro.obs.telemetry import NULL_TELEMETRY, get_telemetry, telemetry_session
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt.executor import run_kernel
from repro.timing.gpu import simulate_architecture_columns
from repro.workloads.registry import build_workload


def _one_run(benchmark: str, scale: str) -> float:
    """Seconds for execute, classify, interpret and SM timing on one arch."""
    built = build_workload(benchmark, scale)
    arch = paper_architectures()[0]
    started = time.perf_counter()
    columnar = run_kernel(built.kernel, built.launch, built.memory)
    ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
    # The SM timing loop runs inside the measured region so the bound
    # also covers the flight-recorder hook sites (recorder=None, the
    # default every normal run takes).
    simulate_architecture_columns(
        ccols,
        process_columns(ccols, arch),
        arch,
        warps_per_cta=built.launch.warps_per_cta(columnar.warp_size),
    )
    return time.perf_counter() - started


def measure(benchmark: str, scale: str, repeats: int) -> dict:
    """Median pipeline seconds with telemetry off and enabled.

    ``off`` runs under the process-global null registry (every normal
    run's configuration); ``enabled`` under a fresh enabled registry,
    paying the aggregation passes.  ``disabled_overhead_ratio`` is
    ``off / min(off, enabled)``: 1.0 up to timing noise unless the
    disabled path grew real work.
    """
    timings: dict[str, list[float]] = {"off": [], "enabled": []}
    _one_run(benchmark, scale)  # warm caches and imports once
    for _ in range(repeats):
        timings["off"].append(_one_run(benchmark, scale))
        with telemetry_session():
            timings["enabled"].append(_one_run(benchmark, scale))
    medians = {name: statistics.median(values) for name, values in timings.items()}
    baseline = min(medians["off"], medians["enabled"])
    return {
        "benchmark": benchmark,
        "scale": scale,
        "repeats": repeats,
        "median_seconds": {name: round(value, 6) for name, value in medians.items()},
        "disabled_overhead_ratio": round(medians["off"] / baseline, 4)
        if baseline > 0
        else 1.0,
        "enabled_overhead_ratio": round(medians["enabled"] / medians["off"], 4)
        if medians["off"] > 0
        else 1.0,
    }


def _fail_if_called(*args, **kwargs):
    raise AssertionError("telemetry helper invoked while disabled")


class TestStructuralZeroWork:
    def test_executor_skips_helpers_when_disabled(self, monkeypatch):
        assert get_telemetry() is NULL_TELEMETRY
        monkeypatch.setattr(
            "repro.simt.executor.record_columnar_warps", _fail_if_called
        )
        built = build_workload("BP", "tiny")
        run_kernel(built.kernel, built.launch, built.memory)

    def test_tracker_skips_helpers_when_disabled(self, monkeypatch):
        # The production classifier is the sidecar tracker of the runs.
        assert get_telemetry() is NULL_TELEMETRY
        monkeypatch.setattr(
            "repro.scalar.batch.record_classified_columns", _fail_if_called
        )
        built = build_workload("BP", "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classify_columnar_batch(trace, built.kernel.num_registers)

    def test_power_accounting_skips_helpers_when_disabled(self, monkeypatch):
        from repro.experiments.runner import ExperimentRunner, paper_architectures

        assert get_telemetry() is NULL_TELEMETRY
        monkeypatch.setattr(
            "repro.power.accounting.record_rf_accesses_columns", _fail_if_called
        )
        monkeypatch.setattr(
            "repro.power.accounting.record_power_breakdown", _fail_if_called
        )
        runner = ExperimentRunner(scale="tiny")
        runner.power("BP", paper_architectures()[0])

    def test_null_registry_accumulates_nothing(self):
        built = build_workload("BP", "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classify_columnar_batch(trace, built.kernel.num_registers)
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.histograms == {}
        assert NULL_TELEMETRY.spans == []


class TestBench:
    @pytest.fixture(scope="class")
    def result(self):
        return measure("BP", "tiny", repeats=5)

    def test_reports_all_settings(self, result):
        assert set(result["median_seconds"]) == {"off", "enabled"}
        assert all(value > 0 for value in result["median_seconds"].values())

    def test_disabled_overhead_is_small(self, result):
        # off / min(off, enabled) is 1.0 up to timing noise unless the
        # disabled path grew real per-instruction work; CI's
        # telemetry-smoke job enforces the strict 5% bound.
        assert 1.0 <= result["disabled_overhead_ratio"] < 1.5

    def test_enabled_overhead_is_bounded(self, result):
        # The aggregation passes cost something, but an enabled registry
        # must stay the same order of magnitude as the seed pipeline.
        assert result["enabled_overhead_ratio"] < 3.0
