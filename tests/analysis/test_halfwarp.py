"""Tests for the Figure 10 chunk-scalar analysis."""

import pytest

from repro.analysis.halfwarp import chunk_scalar_stats
from repro.errors import TraceError
from repro.experiments.runner import ExperimentRunner
from repro.isa import KernelBuilder
from repro.simt import MemoryImage
from repro.workloads.patterns import half_parameter
from repro.workloads.registry import all_workloads

from tests.conftest import run_one_warp
from tests.oracles import chunk_scalar_stats_events
from tests.reference.trace import to_trace


def half_scalar_kernel():
    """Ops on a per-half parameter: chunk-scalar but not full-scalar."""
    import numpy as np

    b = KernelBuilder("half")
    hp = half_parameter(b, 0x1000)
    x = b.iadd(hp, 1)
    y = b.iadd(x, hp)
    b.st_global(b.imad(b.tid(), 4, 0x2000), y)
    kernel = b.finish()
    memory = MemoryImage()
    memory.bind_array(0x1000, np.array([11, 22, 33, 44], dtype=np.uint32))
    return kernel, memory


class TestChunkScalar:
    def test_half_scalar_detected_at_warp32(self):
        kernel, memory = half_scalar_kernel()
        trace = run_one_warp(kernel, memory)
        stats = chunk_scalar_stats(trace, granularity=16)
        assert stats.chunk_scalar_instructions >= 2
        assert stats.warp_size == 32

    def test_full_scalar_not_counted_as_chunk(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        stats = chunk_scalar_stats(trace, granularity=16)
        assert stats.full_scalar_instructions > 0
        assert stats.chunk_scalar_instructions == 0

    def test_warp64_quarter_scalar(self):
        kernel, memory = half_scalar_kernel()
        trace = run_one_warp(kernel, memory, warp_size=64, cta=64)
        stats = chunk_scalar_stats(trace, granularity=16)
        # lanes 0-15 read param[0], 16-63 read param[1..3] per the shr
        # pattern; chunks are individually scalar but not all equal.
        assert stats.chunk_scalar_instructions >= 2

    def test_merging_warps_raises_chunk_share(self):
        """The Figure 10 effect: two 32-thread warps with different
        scalar values merge into one 64-thread chunk-scalar warp."""
        import numpy as np

        b = KernelBuilder("merge_effect")
        tid = b.tid()
        warp_id = b.shr(tid, 5)  # distinct per 32 threads
        param = b.ld_global(b.imad(warp_id, 4, 0x1000))
        result = b.iadd(param, 7)
        b.st_global(b.imad(tid, 4, 0x2000), result)
        kernel = b.finish()

        def fraction(warp_size):
            memory = MemoryImage()
            memory.bind_array(0x1000, np.array([5, 9], dtype=np.uint32))
            trace = run_one_warp(kernel, memory, warp_size=warp_size, cta=64)
            return chunk_scalar_stats(trace, 16).chunk_scalar_fraction

        assert fraction(64) > fraction(32)

    def test_bad_granularity_rejected(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        with pytest.raises(TraceError):
            chunk_scalar_stats(trace, granularity=5)

    def test_divergent_writes_invalidate_state(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage())
        stats = chunk_scalar_stats(trace, granularity=16)
        assert stats.total_instructions == trace.total_instructions


@pytest.fixture(scope="module")
def small_runner():
    return ExperimentRunner(scale="small")


@pytest.mark.parametrize("warp_size", [32, 64])
@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_columnar_matches_event_walk(small_runner, abbr, warp_size):
    columnar = small_runner.execute(abbr, warp_size)
    assert chunk_scalar_stats(columnar, 16) == chunk_scalar_stats_events(
        to_trace(columnar), 16
    )
