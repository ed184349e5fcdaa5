"""Unit tests for trace containers."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa.opcodes import OpCategory, Opcode

from tests.reference.trace import KernelTrace, TraceEvent, WarpTrace


def make_event(mask=0xFFFFFFFF, opcode=Opcode.IADD, dst=0):
    return TraceEvent(
        opcode=opcode,
        dst=dst,
        src_regs=(1, 2),
        active_mask=mask,
        block_id=0,
        dst_values=np.zeros(32, dtype=np.uint32),
    )


class TestTraceEvent:
    def test_divergence_detection(self):
        assert not make_event().is_divergent(32)
        assert make_event(mask=0x0000FFFF).is_divergent(32)

    def test_active_lane_count(self):
        assert make_event(mask=0xF).active_lane_count() == 4

    def test_category_derived_from_opcode(self):
        assert make_event(opcode=Opcode.SIN).category is OpCategory.SFU


class TestWarpTrace:
    def test_append_and_iterate(self):
        warp = WarpTrace(warp_id=0, warp_size=32)
        warp.append(make_event())
        assert len(warp) == 1
        assert list(warp)[0].dst == 0

    def test_oversized_mask_rejected(self):
        warp = WarpTrace(warp_id=0, warp_size=16)
        with pytest.raises(TraceError):
            warp.append(make_event(mask=1 << 20))


class TestKernelTrace:
    def test_aggregates(self):
        trace = KernelTrace(kernel_name="k", warp_size=32)
        warp = WarpTrace(warp_id=0, warp_size=32)
        warp.append(make_event())
        warp.append(make_event(mask=0xFF))
        trace.warps.append(warp)
        assert trace.total_instructions == 2
        assert trace.divergent_fraction() == 0.5

    def test_category_histogram(self):
        trace = KernelTrace(kernel_name="k", warp_size=32)
        warp = WarpTrace(warp_id=0, warp_size=32)
        warp.append(make_event())
        warp.append(make_event(opcode=Opcode.SIN))
        trace.warps.append(warp)
        histogram = trace.category_histogram()
        assert histogram[OpCategory.ALU] == 1
        assert histogram[OpCategory.SFU] == 1

    def test_empty_trace(self):
        trace = KernelTrace(kernel_name="k", warp_size=32)
        assert trace.total_instructions == 0
        assert trace.divergent_fraction() == 0.0
