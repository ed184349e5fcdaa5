"""Tests for Figure 1 divergence statistics."""

import pytest

from repro.analysis.divergence import divergence_stats
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.tracker import classify_trace
from repro.simt import MemoryImage, run_kernel
from repro.simt.trace import KernelTrace
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.oracles import divergence_stats_events


def columns_for(trace, num_registers):
    return classify_columnar_batch(trace.to_columnar(), num_registers)


def stats_for(kernel):
    trace = run_one_warp(kernel, MemoryImage())
    return divergence_stats(columns_for(trace, kernel.num_registers))


class TestDivergenceStats:
    def test_convergent_kernel(self, saxpy_kernel, simple_memory):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        stats = divergence_stats(columns_for(trace, saxpy_kernel.num_registers))
        assert stats.divergent_fraction == 0.0
        assert stats.divergent_scalar_fraction == 0.0

    def test_divergent_kernel_counts(self, divergent_kernel):
        stats = stats_for(divergent_kernel)
        assert stats.divergent_instructions > 0
        assert 0 < stats.divergent_fraction < 1

    def test_divergent_scalar_subset(self, divergent_kernel):
        stats = stats_for(divergent_kernel)
        assert stats.divergent_scalar_instructions <= stats.divergent_instructions

    def test_scalar_share_of_divergent(self, divergent_kernel):
        stats = stats_for(divergent_kernel)
        if stats.divergent_instructions:
            expected = (
                stats.divergent_scalar_instructions / stats.divergent_instructions
            )
            assert stats.scalar_share_of_divergent == pytest.approx(expected)

    def test_empty_trace(self):
        stats = divergence_stats(columns_for(KernelTrace("empty", 32), 0))
        assert stats.divergent_fraction == 0.0
        assert stats.scalar_share_of_divergent == 0.0


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_columns_match_event_walk(abbr):
    built = build_workload(abbr, "tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    expected = divergence_stats_events(
        classify_trace(trace, built.kernel.num_registers)
    )
    assert divergence_stats(columns_for(trace, built.kernel.num_registers)) == expected
