"""Tests for 64-bit wide-value compression (§5.3's forward study)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.wide import (
    address_width_study,
    common_prefix_bytes_wide,
    prefix_bytes_wide_batch,
)
from repro.errors import CompressionError
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.oracles import address_width_study_events
from tests.reference.trace import KernelTrace, from_trace, to_trace


class TestWidePrefix:
    def test_scalar(self):
        values = np.full(32, 0x7F40_1234_5678_9ABC, dtype=np.uint64)
        assert common_prefix_bytes_wide(values) == 8

    def test_coalesced_64bit_addresses(self):
        base = np.uint64(0x7F40_0000_1000)
        values = base + 4 * np.arange(32, dtype=np.uint64)
        assert common_prefix_bytes_wide(values) == 7

    def test_no_similarity(self):
        values = np.array([1 << 56, 2 << 56], dtype=np.uint64)
        assert common_prefix_bytes_wide(values) == 0

    def test_narrower_width(self):
        values = np.uint64(0xAABB00) + np.arange(8, dtype=np.uint64)
        assert common_prefix_bytes_wide(values, width_bytes=4) == 3

    def test_invalid_width(self):
        with pytest.raises(CompressionError):
            common_prefix_bytes_wide(np.zeros(4, dtype=np.uint64), width_bytes=9)

    def test_single_lane_is_fully_scalar(self):
        assert common_prefix_bytes_wide(np.array([5], dtype=np.uint64)) == 8


@settings(max_examples=100, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=2**63),
    offsets=st.lists(st.integers(min_value=0, max_value=255), min_size=8, max_size=8),
)
def test_low_byte_offsets_share_seven_bytes(base, offsets):
    base &= ~0xFF  # align so offsets stay within the low byte
    values = (np.uint64(base) + np.array(offsets, dtype=np.uint64)).astype(np.uint64)
    assert common_prefix_bytes_wide(values) >= 7


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    width=st.integers(min_value=1, max_value=8),
)
def test_batch_matches_per_row(rows, width):
    values = np.array(rows, dtype=np.uint64)
    expected = [common_prefix_bytes_wide(row, width) for row in values]
    assert prefix_bytes_wide_batch(values, width).tolist() == expected


class TestAddressWidthStudy:
    def _trace(self):
        from repro.isa import KernelBuilder

        b = KernelBuilder("addrs")
        tid = b.tid()
        x = b.ld_global(b.imad(tid, 4, 0x1000))  # coalesced addresses
        b.st_global(b.imad(tid, 4, 0x2000), x)
        return run_kernel(b.finish(), LaunchConfig(1, 32), MemoryImage())

    def test_wider_addresses_compress_better(self):
        study = address_width_study(self._trace())
        assert study.accesses == 2
        # §5.3: 64-bit addressing leaves a smaller stored fraction.
        assert study.stored_fraction_64bit < study.stored_fraction_32bit
        assert study.savings_64bit > study.savings_32bit

    def test_empty_trace(self):
        study = address_width_study(
            from_trace(KernelTrace(kernel_name="e", warp_size=32))
        )
        assert study.accesses == 0
        assert study.stored_fraction_32bit == 1.0

    def test_workload_study(self):
        from repro.simt.executor import run_kernel as rk
        from repro.workloads.registry import build_workload

        built = build_workload("LBM", scale="tiny")
        trace = rk(built.kernel, built.launch, built.memory)
        study = address_width_study(trace)
        assert study == address_width_study_events(to_trace(trace))
        assert study.accesses > 0
        assert study.savings_64bit >= study.savings_32bit
