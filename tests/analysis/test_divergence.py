"""Tests for Figure 1's divergence counts in the count table."""

import pytest

from repro.scalar.batch import classify_columnar_batch
from repro.scalar.eligibility import ScalarClass
from repro.scalar.tracker import trace_statistics
from repro.simt import MemoryImage, run_kernel
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.oracles import divergence_stats_events
from tests.reference.classify import classify_trace
from tests.reference.trace import KernelTrace, from_trace, to_trace


def columns_for(columnar, num_registers):
    return classify_columnar_batch(columnar, num_registers)


def stats_for(kernel):
    trace = run_one_warp(kernel, MemoryImage())
    return trace_statistics(columns_for(trace, kernel.num_registers))


def divergent_scalar(stats):
    return stats.class_counts[ScalarClass.DIVERGENT_SCALAR]


class TestDivergenceStats:
    def test_convergent_kernel(self, saxpy_kernel, simple_memory):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        stats = trace_statistics(columns_for(trace, saxpy_kernel.num_registers))
        assert stats.divergent_fraction == 0.0
        assert stats.fraction(ScalarClass.DIVERGENT_SCALAR) == 0.0

    def test_divergent_kernel_counts(self, divergent_kernel):
        stats = stats_for(divergent_kernel)
        assert stats.divergent_instructions > 0
        assert 0 < stats.divergent_fraction < 1

    def test_divergent_scalar_subset(self, divergent_kernel):
        stats = stats_for(divergent_kernel)
        assert divergent_scalar(stats) <= stats.divergent_instructions

    def test_empty_trace(self):
        empty = from_trace(KernelTrace("empty", 32))
        stats = trace_statistics(columns_for(empty, 0))
        assert stats.divergent_fraction == 0.0
        assert stats.fraction(ScalarClass.DIVERGENT_SCALAR) == 0.0


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_columns_match_event_walk(abbr):
    built = build_workload(abbr, "tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    expected = divergence_stats_events(
        classify_trace(to_trace(trace), built.kernel.num_registers)
    )
    stats = trace_statistics(columns_for(trace, built.kernel.num_registers))
    assert (
        stats.total_instructions,
        stats.divergent_instructions,
        divergent_scalar(stats),
    ) == expected
