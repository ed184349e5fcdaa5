"""Cross-module integration tests: invariants of the full pipeline.

Each test runs the complete stack (builder -> executor -> tracker ->
architecture views -> timing -> power) on one benchmark and checks a
relationship the paper's argument depends on.
"""

import pytest

from repro.config import EVALUATED_ARCHITECTURES, ArchitectureConfig
from repro.power.accounting import PowerAccountant
from repro.scalar.architectures import process_classified, processed_statistics
from repro.scalar.tracker import trace_statistics
from repro.simt.executor import run_kernel
from repro.timing.gpu import simulate_architecture
from repro.workloads.registry import SCALES, build_workload

from tests.oracles import columns_from_classified

ARCHES = {arch.name: arch for arch in EVALUATED_ARCHITECTURES}


@pytest.fixture(scope="module")
def pipeline():
    """Run HS (divergent) and BP (scalar/SFU heavy) through everything."""
    results = {}
    for abbr in ("HS", "BP"):
        built = build_workload(abbr, scale="tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        from repro.scalar.tracker import classify_trace

        classified = classify_trace(trace, built.kernel.num_registers)
        per_arch = {}
        for arch in EVALUATED_ARCHITECTURES:
            processed = process_classified(classified, arch, trace.warp_size)
            timing = simulate_architecture(processed, arch)
            power = PowerAccountant(arch).account(processed, timing)
            per_arch[arch.name] = (processed, timing, power)
        results[abbr] = (trace, classified, per_arch)
    return results


class TestScalarExecutionMonotonicity:
    def test_capability_ordering(self, pipeline):
        """More capable architectures scalarize at least as much."""
        for abbr, (_, _, per_arch) in pipeline.items():
            counts = {
                name: processed_statistics(processed).scalar_executed
                for name, (processed, _, _) in per_arch.items()
            }
            assert counts["baseline"] == 0
            assert counts["alu_scalar"] <= counts["gscalar_no_divergent"]
            assert counts["gscalar_no_divergent"] <= counts["gscalar"]

    def test_exec_lane_ordering(self, pipeline):
        for abbr, (_, _, per_arch) in pipeline.items():
            lanes = {
                name: processed_statistics(processed).exec_lane_sum
                for name, (processed, _, _) in per_arch.items()
            }
            assert lanes["gscalar"] <= lanes["gscalar_no_divergent"]
            assert lanes["gscalar"] < lanes["baseline"]


class TestEnergyInvariants:
    def test_rf_energy_ordering(self, pipeline):
        """Compression never increases RF energy versus baseline."""
        for abbr, (_, _, per_arch) in pipeline.items():
            baseline_rf = per_arch["baseline"][2].breakdown.rf_pj
            gscalar_rf = per_arch["gscalar"][2].breakdown.rf_pj
            assert gscalar_rf < baseline_rf

    def test_total_instructions_match_timing(self, pipeline):
        for abbr, (trace, _, per_arch) in pipeline.items():
            for name, (processed, timing, _) in per_arch.items():
                stats = processed_statistics(processed)
                expected = stats.total_instructions + stats.extra_instructions
                assert timing.instructions == expected
                assert timing.useful_instructions == stats.total_instructions

    def test_gscalar_pipeline_latency_costs_cycles_or_equal(self, pipeline):
        for abbr, (_, _, per_arch) in pipeline.items():
            baseline_cycles = per_arch["baseline"][1].cycles
            gscalar_cycles = per_arch["gscalar"][1].cycles
            # +3 cycles cannot make the machine dramatically faster; allow
            # small scheduling noise in the other direction.
            assert gscalar_cycles > 0.93 * baseline_cycles

    def test_memory_traffic_is_architecture_independent(self, pipeline):
        for abbr, (_, _, per_arch) in pipeline.items():
            counts = {
                name: (
                    timing.memory_counts.l1_accesses,
                    timing.memory_counts.shared_accesses,
                )
                for name, (_, timing, _) in per_arch.items()
            }
            assert len(set(counts.values())) == 1


class TestStatisticsConsistency:
    def test_tracker_and_views_agree_on_totals(self, pipeline):
        for abbr, (trace, classified, per_arch) in pipeline.items():
            tracker_stats = trace_statistics(
                columns_from_classified(classified, trace.warp_size)
            )
            assert tracker_stats.total_instructions == trace.total_instructions
            for name, (processed, _, _) in per_arch.items():
                view_stats = processed_statistics(processed)
                assert (
                    view_stats.total_instructions
                    == tracker_stats.total_instructions
                )

    def test_decompress_moves_only_on_compression_archs(self, pipeline):
        for abbr, (_, classified, per_arch) in pipeline.items():
            for name, (processed, _, _) in per_arch.items():
                stats = processed_statistics(processed)
                if name == "baseline":
                    assert stats.extra_instructions == 0


class TestDeterminism:
    def test_full_pipeline_is_reproducible(self):
        def run_once():
            built = build_workload("SR1", scale="tiny")
            trace = run_kernel(built.kernel, built.launch, built.memory)
            from repro.scalar.tracker import classify_trace

            classified = classify_trace(trace, built.kernel.num_registers)
            arch = ArchitectureConfig.gscalar()
            processed = process_classified(classified, arch, trace.warp_size)
            timing = simulate_architecture(processed, arch)
            report = PowerAccountant(arch).account(processed, timing)
            return timing.cycles, report.total_power_w

        assert run_once() == run_once()
