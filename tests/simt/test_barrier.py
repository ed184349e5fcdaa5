"""Tests for CTA barriers (``bar.sync``) in the functional executor."""

import numpy as np
import pytest

from repro.errors import ExecutionError, KernelValidationError
from repro.isa import KernelBuilder
from repro.isa.instructions import Instruction, Reg
from repro.isa.opcodes import OpCategory, Opcode, category_of
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.reference.trace import to_trace


def cta_reduction_kernel(cta_size):
    """Cross-warp sum: all warps publish, then warp 0 reduces."""
    b = KernelBuilder("cta_reduce")
    tid = b.tid()
    lane_in_cta = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
    x = b.ld_global(b.imad(tid, 4, 0x1000))
    b.st_shared(b.imul(lane_in_cta, 4), x)
    b.barrier()
    is_leader = b.seteq(lane_in_cta, 0)
    with b.if_(is_leader):
        total = b.mov(0)
        with b.for_range(0, cta_size) as index:
            value = b.ld_shared(b.imul(index, 4))
            total = b.iadd(total, value, dst=total)
        b.st_global(b.imad(b.ctaid(), 4, 0x2000), total)
    return b.finish()


class TestBarrierSemantics:
    def test_cross_warp_reduction(self):
        kernel = cta_reduction_kernel(128)
        memory = MemoryImage()
        data = np.arange(256, dtype=np.uint32)
        memory.bind_array(0x1000, data)
        run_kernel(kernel, LaunchConfig(grid_dim=2, cta_dim=128), memory)
        out = memory.read_array(0x2000, 2)
        expected = data.reshape(2, 128).sum(axis=1).astype(np.uint32)
        assert np.array_equal(out, expected)

    def test_multiple_barriers(self):
        b = KernelBuilder("two_phases")
        lane_in_cta = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
        b.st_shared(b.imul(lane_in_cta, 4), b.iadd(lane_in_cta, 1))
        b.barrier()
        # Phase 2: read the neighbouring warp's value.
        partner = b.xor(lane_in_cta, 32)
        neighbour = b.ld_shared(b.imul(partner, 4))
        b.barrier()
        b.st_shared(b.imul(lane_in_cta, 4), neighbour)
        b.barrier()
        final = b.ld_shared(b.imul(lane_in_cta, 4))
        b.st_global(b.imad(b.tid(), 4, 0x2000), final)
        kernel = b.finish()
        memory = MemoryImage()
        run_kernel(kernel, LaunchConfig(grid_dim=1, cta_dim=64), memory)
        out = memory.read_array(0x2000, 64)
        expected = (np.arange(64) ^ 32) + 1
        assert np.array_equal(out, expected.astype(np.uint32))

    def test_barrier_under_divergence_rejected(self):
        b = KernelBuilder("bad_barrier")
        tid = b.tid()
        cond = b.setlt(tid, 16)
        with b.if_(cond):
            b.barrier()
        kernel = b.finish()
        with pytest.raises(ExecutionError, match="divergent"):
            run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())

    def test_barrier_divergence_across_warps_rejected(self):
        # Warp 0 hits a barrier, warp 1 exits without one.
        b = KernelBuilder("uneven")
        is_first_warp = b.seteq(b.warp_in_cta(), 0)
        with b.if_(is_first_warp):
            b.barrier()
        kernel = b.finish()
        with pytest.raises(ExecutionError, match="barrier divergence"):
            run_kernel(kernel, LaunchConfig(1, 64), MemoryImage())

    def test_barrier_in_uniform_loop(self):
        b = KernelBuilder("loop_barrier")
        lane_in_cta = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
        acc = b.mov(0)
        with b.for_range(0, 3):
            b.st_shared(b.imul(lane_in_cta, 4), acc)
            b.barrier()
            other = b.ld_shared(b.imul(b.xor(lane_in_cta, 32), 4))
            acc = b.iadd(acc, b.iadd(other, 1), dst=acc)
            b.barrier()
        b.st_global(b.imad(b.tid(), 4, 0x2000), acc)
        kernel = b.finish()
        memory = MemoryImage()
        run_kernel(kernel, LaunchConfig(1, 64), memory)
        out = memory.read_array(0x2000, 64)
        # acc follows 0 -> 1 -> 3 -> 7 in every lane.
        assert np.array_equal(out, np.full(64, 7, dtype=np.uint32))

    def test_barrier_trivial_for_single_warp_cta(self):
        b = KernelBuilder("solo")
        b.barrier()
        b.st_global(b.imad(b.tid(), 4, 0x2000), b.mov(1))
        kernel = b.finish()
        memory = MemoryImage()
        trace = to_trace(run_kernel(kernel, LaunchConfig(1, 32), memory))
        assert memory.read_array(0x2000, 1)[0] == 1
        barriers = [e for e in trace.all_events() if e.opcode is Opcode.BAR]
        assert len(barriers) == 1


class TestBarrierMetadata:
    def test_bar_is_control_category(self):
        assert category_of(Opcode.BAR) is OpCategory.CTRL

    def test_bar_allowed_as_body_instruction(self):
        inst = Instruction(opcode=Opcode.BAR, dst=None, srcs=())
        assert inst.dst is None

    def test_other_control_still_rejected_as_body(self):
        with pytest.raises(KernelValidationError):
            Instruction(opcode=Opcode.JMP, dst=None, srcs=())

    def test_barrier_event_in_trace(self):
        kernel = cta_reduction_kernel(64)
        memory = MemoryImage()
        memory.bind_array(0x1000, np.zeros(64, dtype=np.uint32))
        trace = to_trace(run_kernel(kernel, LaunchConfig(1, 64), memory))
        for warp in trace.warps:
            barrier_events = [e for e in warp if e.opcode is Opcode.BAR]
            assert len(barrier_events) == 1
            assert barrier_events[0].active_mask == 0xFFFFFFFF
