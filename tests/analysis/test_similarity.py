"""Tests for the Figure 8 access-distribution analysis."""

import pytest

from repro.analysis.similarity import CATEGORIES, access_distribution
from repro.isa import KernelBuilder
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.tracker import classify_trace
from repro.simt import MemoryImage, run_kernel
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.oracles import access_distribution_events


def distribution_for(kernel):
    trace = run_one_warp(kernel, MemoryImage())
    return access_distribution(
        classify_columnar_batch(trace.to_columnar(), kernel.num_registers)
    )


class TestAccessDistribution:
    def test_scalar_chain_reads_scalar(self, scalar_heavy_kernel):
        distribution = distribution_for(scalar_heavy_kernel)
        fractions = distribution.fractions()
        assert fractions["scalar"] > 0.5

    def test_divergent_reads_bucketed_first(self, divergent_kernel):
        distribution = distribution_for(divergent_kernel)
        assert distribution.counts["divergent"] > 0

    def test_three_byte_values_detected(self):
        b = KernelBuilder("threebyte")
        tid = b.tid()
        x = b.iadd(tid, 0x40300000)  # 3-byte shared prefix
        b.iadd(x, x)
        distribution = distribution_for(b.finish())
        assert distribution.counts["3-byte"] >= 2

    def test_fractions_sum_to_one(self, divergent_kernel):
        distribution = distribution_for(divergent_kernel)
        assert sum(distribution.fractions().values()) == pytest.approx(1.0)

    def test_merge(self, divergent_kernel, scalar_heavy_kernel):
        a = distribution_for(divergent_kernel)
        b = distribution_for(scalar_heavy_kernel)
        total = a.total + b.total
        a.merge(b)
        assert a.total == total

    def test_categories_order(self):
        assert CATEGORIES[0] == "scalar"
        assert "divergent" in CATEGORIES


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_columns_match_event_walk(abbr):
    built = build_workload(abbr, "tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    expected = access_distribution_events(
        classify_trace(trace, built.kernel.num_registers)
    )
    columns = classify_columnar_batch(trace.to_columnar(), built.kernel.num_registers)
    assert access_distribution(columns).counts == expected.counts
