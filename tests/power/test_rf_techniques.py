"""Tests for the Figure 12 RF-technique comparison."""

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import ExperimentRunner
from repro.isa import KernelBuilder
from repro.power.rf_techniques import (
    RF_TECHNIQUES,
    rf_energy_for_technique,
    technique_architecture,
)
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt import MemoryImage
from repro.workloads.registry import all_workloads

from tests.conftest import run_one_warp
from tests.oracles import (
    classified_events,
    processed_columns,
    rf_energy_events,
    wc_bdi_energy_events,
)
from tests.reference.classify import classify_trace
from tests.reference.trace import to_trace


def energies_for(kernel):
    """Each technique's energy on one warp, plus the per-event oracle's."""
    columnar = run_one_warp(kernel, MemoryImage())
    trace = to_trace(columnar)
    classified = classify_trace(trace, kernel.num_registers)
    ccols = classify_columnar_batch(columnar, kernel.num_registers)
    results = {"wc_bdi": rf_energy_for_technique(columnar, "wc_bdi")}
    for technique in ("baseline", "scalar_rf", "ours"):
        pcols = process_columns(ccols, technique_architecture(technique))
        results[technique] = rf_energy_for_technique(pcols, technique)
    oracle = {
        technique: rf_energy_events(classified, technique, trace.warp_size)
        for technique in RF_TECHNIQUES
    }
    return results, oracle


def similar_value_kernel():
    """Registers hold shared-prefix values: compressible by both schemes."""
    b = KernelBuilder("similar")
    tid = b.tid()
    x = b.iadd(tid, 0x40300000)  # 2-3 byte prefix across lanes
    y = b.iadd(x, 1)
    z = b.iadd(y, x)
    b.st_global(b.imad(tid, 4, 0x100), z)
    return b.finish()


class TestOrdering:
    def test_all_techniques_cheaper_than_baseline(self, scalar_heavy_kernel):
        results, _ = energies_for(scalar_heavy_kernel)
        for technique in ("scalar_rf", "wc_bdi", "ours"):
            assert results[technique].rf_pj < results["baseline"].rf_pj

    def test_ours_beats_scalar_rf_on_partial_similarity(self):
        results, _ = energies_for(similar_value_kernel())
        # No full-scalar values here, so the scalar RF barely helps while
        # byte-wise compression still does (the MG/MV story of §5.3).
        assert results["ours"].rf_pj < 0.9 * results["scalar_rf"].rf_pj

    def test_normalization(self, scalar_heavy_kernel):
        results, _ = energies_for(scalar_heavy_kernel)
        baseline = results["baseline"]
        assert baseline.normalized_to(baseline) == pytest.approx(1.0)

    def test_unknown_technique_rejected(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        with pytest.raises(ConfigError):
            rf_energy_for_technique(trace, "magic")

    def test_wc_bdi_has_no_architecture(self):
        with pytest.raises(ConfigError):
            technique_architecture("wc_bdi")

    def test_series_constant_is_ordered(self):
        assert RF_TECHNIQUES == ("baseline", "scalar_rf", "wc_bdi", "ours")

    @pytest.mark.parametrize("kernel", ["scalar_heavy_kernel", "divergent_kernel"])
    def test_matches_event_replay(self, kernel, request):
        results, oracle = energies_for(request.getfixturevalue(kernel))
        for technique in RF_TECHNIQUES:
            assert results[technique].accesses == oracle[technique].accesses
            assert results[technique].rf_pj == pytest.approx(
                oracle[technique].rf_pj, rel=1e-12
            )


class TestWcBdiState:
    def test_divergent_writes_stay_uncompressed(self, divergent_kernel):
        results, _ = energies_for(divergent_kernel)
        assert results["wc_bdi"].rf_pj > 0
        assert results["wc_bdi"].accesses > 0


@pytest.fixture(scope="module")
def small_runner():
    return ExperimentRunner(scale="small")


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_wc_bdi_matches_event_walk(small_runner, abbr):
    run = small_runner.run(abbr)
    columnar = rf_energy_for_technique(run.columnar, "wc_bdi")
    oracle = wc_bdi_energy_events(
        classified_events(small_runner, abbr), run.columnar.warp_size
    )
    assert columnar.accesses == oracle.accesses
    assert columnar.rf_pj == pytest.approx(oracle.rf_pj, rel=1e-12, abs=0)


@pytest.mark.parametrize("abbr", ["BP", "HS", "MV"])
def test_power_report_rf_energy_is_the_technique_energy(small_runner, abbr):
    """Figure 12 reads three series from the power reports."""
    run = small_runner.run(abbr)
    classified = classified_events(small_runner, abbr)
    for technique in ("baseline", "scalar_rf", "ours"):
        arch = technique_architecture(technique)
        result = rf_energy_for_technique(
            processed_columns(small_runner, abbr, arch), technique
        )
        assert result.rf_pj == small_runner.power(abbr, arch).breakdown.rf_pj
        oracle = rf_energy_events(classified, technique, run.columnar.warp_size)
        assert result.accesses == oracle.accesses
        assert result.rf_pj == pytest.approx(oracle.rf_pj, rel=1e-12, abs=0)
