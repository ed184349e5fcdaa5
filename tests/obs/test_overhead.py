"""The disabled (null-registry) path must stay seed-equivalent.

Two layers of defence: structural tests proving the aggregation
helpers are never invoked while telemetry is disabled (so the hot
loops run exactly the seed instruction stream plus one ``enabled``
attribute read per batch), and a lenient timing bound on the
``repro.obs.bench`` measurement — the strict 5% version runs in CI
where repeat counts are higher.
"""

import pytest

from repro.obs.bench import measure
from repro.obs.telemetry import NULL_TELEMETRY, get_telemetry
from repro.scalar.batch import classify_columnar_batch
from repro.simt.executor import run_kernel
from repro.workloads.registry import build_workload


def _fail_if_called(*args, **kwargs):
    raise AssertionError("telemetry helper invoked while disabled")


class TestStructuralZeroWork:
    def test_executor_skips_helpers_when_disabled(self, monkeypatch):
        assert get_telemetry() is NULL_TELEMETRY
        monkeypatch.setattr(
            "repro.simt.executor.record_warp_trace", _fail_if_called
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
        classify_columnar_batch(trace.to_columnar(), built.kernel.num_registers)

    def test_power_accounting_skips_helpers_when_disabled(self, monkeypatch):
        from repro.experiments.runner import ExperimentRunner, paper_architectures

        assert get_telemetry() is NULL_TELEMETRY
        monkeypatch.setattr(
            "repro.power.accounting.record_rf_accesses", _fail_if_called
        )
        monkeypatch.setattr(
            "repro.power.accounting.record_power_breakdown", _fail_if_called
        )
        runner = ExperimentRunner(scale="tiny")
        runner.power("BP", paper_architectures()[0])

    def test_null_registry_accumulates_nothing(self):
        built = build_workload("BP", "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classify_columnar_batch(trace.to_columnar(), built.kernel.num_registers)
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.histograms == {}
        assert NULL_TELEMETRY.spans == []


class TestBench:
    @pytest.fixture(scope="class")
    def result(self):
        return measure("BP", "tiny", repeats=5)

    def test_reports_all_settings(self, result):
        assert set(result["median_seconds"]) == {"off", "null_sink", "full"}
        assert all(value > 0 for value in result["median_seconds"].values())

    def test_disabled_overhead_is_small(self, result):
        # off / min(off, null_sink) is 1.0 up to timing noise unless the
        # disabled path grew real per-instruction work; CI enforces the
        # strict 5% bound with python -m repro.obs.bench.
        assert 1.0 <= result["disabled_overhead_ratio"] < 1.5

    def test_enabled_overhead_is_bounded(self, result):
        # The aggregation passes cost something, but an enabled registry
        # must stay the same order of magnitude as the seed pipeline.
        assert result["enabled_overhead_ratio"] < 3.0
