"""Unit tests for compression-ratio accounting."""

import numpy as np

import pytest

from repro.compression.stats import CompressionComparison, compare_trace
from repro.experiments.runner import ExperimentRunner
from repro.isa import KernelBuilder
from repro.simt import MemoryImage
from repro.workloads.registry import all_workloads

from tests.conftest import run_one_warp
from tests.oracles import compare_trace_events
from tests.reference.trace import to_trace


class TestCompressionComparison:
    def test_scalar_values_compress_best(self):
        comparison = CompressionComparison(warp_size=32)
        comparison.observe_batch(np.full((1, 32), 5, dtype=np.uint32))
        assert comparison.ours_ratio > 20
        assert comparison.enc_histogram[4] == 1

    def test_random_values_do_not_compress(self):
        comparison = CompressionComparison(warp_size=32)
        rng = np.random.default_rng(0)
        comparison.observe_batch(
            rng.integers(0, 2**32, size=(1, 32), dtype=np.uint64).astype(np.uint32)
        )
        assert comparison.ours_ratio < 1.05

    def test_fractions_sum_to_one(self):
        comparison = CompressionComparison(warp_size=32)
        comparison.observe_batch(np.full((1, 32), 5, dtype=np.uint32))
        comparison.observe_batch(np.arange(32, dtype=np.uint32)[None])
        fractions = comparison.enc_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_empty_comparison_has_unit_ratios(self):
        comparison = CompressionComparison(warp_size=32)
        assert comparison.ours_ratio == 1.0
        assert comparison.bdi_ratio == 1.0


class TestCompareTrace:
    def test_divergent_writes_skipped(self):
        b = KernelBuilder("skip_divergent")
        tid = b.tid()
        value = b.mov(3)  # convergent scalar write (observed)
        odd = b.and_(tid, 1)
        cond = b.setne(odd, 0)
        with b.if_(cond):
            value = b.mov(9, dst=value)  # divergent write (skipped)
        b.st_global(b.imad(tid, 4, 0x100), value)
        trace = run_one_warp(b.finish(), MemoryImage())
        comparison = compare_trace(trace)
        total_writes = sum(
            1 for e in to_trace(trace).all_events() if e.dst_values is not None
        )
        assert comparison.registers_seen < total_writes
        assert comparison.registers_seen > 0

    def test_ratios_track_value_structure(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        comparison = compare_trace(trace)
        # A scalar-chain kernel compresses extremely well under both.
        assert comparison.ours_ratio > 5
        assert comparison.bdi_ratio > 5


@pytest.fixture(scope="module")
def small_runner():
    return ExperimentRunner(scale="small")


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_columnar_matches_event_walk(small_runner, abbr):
    columnar = small_runner.run(abbr).columnar
    assert compare_trace(columnar) == compare_trace_events(to_trace(columnar))
