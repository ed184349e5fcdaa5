"""Integration tests for the power accountant."""

import pytest

from repro.config import ArchitectureConfig
from repro.power.accounting import PowerAccountant
from repro.simt import MemoryImage
from repro.timing.gpu import simulate_architecture

from tests.conftest import run_one_warp
from tests.oracles import process_trace_events


def full_run(kernel, arch):
    trace = run_one_warp(kernel, MemoryImage(), cta=64)
    processed = process_trace_events(trace, arch, kernel.num_registers)
    timing = simulate_architecture(processed, arch)
    return PowerAccountant(arch).account(processed, timing)


class TestReports:
    def test_report_fields_consistent(self, scalar_heavy_kernel):
        report = full_run(scalar_heavy_kernel, ArchitectureConfig.baseline())
        assert report.cycles > 0
        assert report.ipc > 0
        assert report.total_power_w > report.static_w
        assert report.ipc_per_watt == pytest.approx(
            report.ipc / report.total_power_w
        )

    def test_component_fractions_sum_to_one(self, scalar_heavy_kernel):
        report = full_run(scalar_heavy_kernel, ArchitectureConfig.baseline())
        assert sum(report.breakdown.fractions().values()) == pytest.approx(1.0)

    def test_gscalar_saves_power_on_scalar_chain(self, scalar_heavy_kernel):
        baseline = full_run(scalar_heavy_kernel, ArchitectureConfig.baseline())
        gscalar = full_run(scalar_heavy_kernel, ArchitectureConfig.gscalar())
        assert gscalar.dynamic_power_w < baseline.dynamic_power_w
        assert gscalar.breakdown.exec_sfu_pj < baseline.breakdown.exec_sfu_pj
        assert gscalar.breakdown.rf_pj < baseline.breakdown.rf_pj

    def test_gscalar_pays_compression_energy(self, scalar_heavy_kernel):
        baseline = full_run(scalar_heavy_kernel, ArchitectureConfig.baseline())
        gscalar = full_run(scalar_heavy_kernel, ArchitectureConfig.gscalar())
        assert baseline.breakdown.compression_pj == 0
        assert gscalar.breakdown.compression_pj > 0

    def test_sfu_power_tracked_separately(self, scalar_heavy_kernel):
        report = full_run(scalar_heavy_kernel, ArchitectureConfig.baseline())
        assert report.sfu_power_w > 0
        assert report.rf_dynamic_power_w > 0

    def test_divergent_kernel_memory_energy(self, divergent_kernel):
        report = full_run(divergent_kernel, ArchitectureConfig.baseline())
        assert report.breakdown.memory_pj > 0  # the final stores
