"""Tests for the columnar trace form.

Covers the executor's columnar output against the event-form round
trip (``from_trace(to_trace(columnar))`` equals what
``run_kernel`` wrote, array for array, dtypes included).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa import KernelBuilder
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.simt.trace import ColumnarTrace
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.reference.trace import KernelTrace, from_trace, to_trace
from tests.simt.test_barrier import cta_reduction_kernel


def _multi_warp_trace(kernel, memory=None):
    memory = memory or MemoryImage()
    return run_kernel(kernel, LaunchConfig(grid_dim=2, cta_dim=64), memory)


def assert_columnar_identical(expected: ColumnarTrace, actual: ColumnarTrace):
    """Array-for-array equality: dtype, shape and values of every field."""
    assert actual.kernel_name == expected.kernel_name
    assert actual.warp_size == expected.warp_size
    for field in dataclasses.fields(ColumnarTrace):
        if field.name in ("kernel_name", "warp_size"):
            continue
        name = field.name
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def assert_round_trips(columnar: ColumnarTrace):
    """The event form of an executor trace packs back to the same arrays."""
    assert_columnar_identical(columnar, from_trace(to_trace(columnar)))


class TestColumnarRoundTrip:
    def test_divergent_multi_warp(self, divergent_kernel):
        columnar = _multi_warp_trace(divergent_kernel)
        assert np.any(columnar.masks != np.uint64(0xFFFFFFFF))
        assert_round_trips(columnar)

    def test_memory_trace_keeps_addresses(self, saxpy_kernel, simple_memory):
        columnar = run_one_warp(saxpy_kernel, simple_memory)
        assert columnar.addresses.shape[1] == columnar.warp_size
        assert np.any(columnar.addr_index >= 0)
        assert_round_trips(columnar)

    def test_barrier_multi_cta(self):
        memory = MemoryImage()
        memory.bind_array(0x1000, np.arange(256, dtype=np.uint32))
        columnar = run_kernel(
            cta_reduction_kernel(128), LaunchConfig(grid_dim=2, cta_dim=128), memory
        )
        assert columnar.num_warps == 8
        assert_round_trips(columnar)

    def test_empty_trace(self):
        trace = KernelTrace(kernel_name="empty", warp_size=32)
        columnar = from_trace(trace)
        assert columnar.num_events == 0
        assert columnar.values.shape == (0, 32)
        assert to_trace(columnar).total_instructions == 0

    def test_executor_empty_trace(self):
        columnar = run_one_warp(KernelBuilder("empty").finish())
        assert columnar.num_events == 0
        assert columnar.warp_lengths.tolist() == [0]
        assert columnar.values.shape == (0, 32)
        assert columnar.addresses.shape == (0, 32)
        assert_round_trips(columnar)

    def test_counts_and_slices(self, loop_kernel):
        columnar = _multi_warp_trace(loop_kernel)
        trace = to_trace(columnar)
        assert columnar.total_instructions == trace.total_instructions
        assert columnar.num_warps == len(trace.warps)
        slices = columnar.warp_slices()
        for (warp_id, segment), warp in zip(slices, trace.warps):
            assert warp_id == warp.warp_id
            assert segment.stop - segment.start == len(warp)
        assert slices[-1][1].stop == columnar.num_events

    def test_inconsistent_lengths_rejected(self, loop_kernel):
        columnar = run_one_warp(loop_kernel)
        columnar.warp_lengths = columnar.warp_lengths + 1
        with pytest.raises(TraceError, match="warp lengths"):
            to_trace(columnar)


@pytest.mark.parametrize("warp_size", [32, 64])
@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_workload_round_trip(abbr, warp_size):
    """Every tiny workload's executor trace survives the event form."""
    built = build_workload(abbr, "tiny")
    columnar = run_kernel(
        built.kernel, built.launch, built.memory, warp_size=warp_size
    )
    assert columnar.warp_size == warp_size
    assert_round_trips(columnar)
