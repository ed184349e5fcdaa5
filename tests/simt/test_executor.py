"""Functional tests for the SIMT executor: semantics and divergence."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.isa import KernelBuilder
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.conftest import run_one_warp
from tests.reference.trace import to_trace


def output(memory, count=32, base=0x3000):
    return memory.read_array(base, count)


class TestArithmetic:
    def test_integer_wraparound(self):
        b = KernelBuilder("wrap")
        x = b.mov(0xFFFFFFFF)
        y = b.iadd(x, 1)
        b.st_global(b.imad(b.tid(), 4, 0x3000), y)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 0

    def test_signed_division_semantics(self):
        b = KernelBuilder("div")
        x = b.mov(-7 & 0xFFFFFFFF)
        q = b.idiv(x, 2)
        r = b.irem(x, 2)
        b.st_global(b.imad(b.tid(), 4, 0x3000), q)
        b.st_global(b.imad(b.tid(), 4, 0x4000), r)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == (-3 & 0xFFFFFFFF)  # trunc toward zero
        assert output(memory, base=0x4000)[0] == (-1 & 0xFFFFFFFF)

    def test_division_by_zero_returns_all_ones(self):
        b = KernelBuilder("div0")
        q = b.idiv(b.mov(5), b.mov(0))
        b.st_global(b.imad(b.tid(), 4, 0x3000), q)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 0xFFFFFFFF

    def test_signed_comparisons(self):
        b = KernelBuilder("cmp")
        neg = b.mov(-5 & 0xFFFFFFFF)
        lt = b.setlt(neg, 3)  # -5 < 3 signed
        b.st_global(b.imad(b.tid(), 4, 0x3000), lt)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 1

    def test_selp(self):
        b = KernelBuilder("selp")
        tid = b.tid()
        odd = b.and_(tid, 1)
        chosen = b.selp(b.mov(111), b.mov(222), odd)
        b.st_global(b.imad(tid, 4, 0x3000), chosen)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        out = output(memory)
        assert out[0] == 222 and out[1] == 111

    def test_float_ops_are_float32(self):
        b = KernelBuilder("fp")
        x = b.fadd(b.fimm(0.1), b.fimm(0.2))
        b.st_global(b.imad(b.tid(), 4, 0x3000), x)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        value = output(memory)[0:1].view(np.float32)[0]
        assert value == np.float32(0.1) + np.float32(0.2)

    def test_fabs_fneg_bit_semantics(self):
        b = KernelBuilder("signs")
        x = b.fneg(b.fimm(1.0))
        y = b.fabs(x)
        b.st_global(b.imad(b.tid(), 4, 0x3000), x)
        b.st_global(b.imad(b.tid(), 4, 0x4000), y)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 0xBF800000
        assert output(memory, base=0x4000)[0] == 0x3F800000

    def test_conversions(self):
        b = KernelBuilder("cvt")
        f = b.i2f(b.mov(7))
        i = b.f2i(b.fmul(f, b.fimm(2.0)))
        b.st_global(b.imad(b.tid(), 4, 0x3000), i)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 14

    def test_shifts_mask_amount(self):
        b = KernelBuilder("shift")
        x = b.shl(b.mov(1), b.mov(33))  # 33 & 31 == 1
        b.st_global(b.imad(b.tid(), 4, 0x3000), x)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        assert output(memory)[0] == 2


class TestControlFlow:
    def test_if_else_divergence(self, divergent_kernel):
        memory = MemoryImage()
        run_one_warp(divergent_kernel, memory)
        out = output(memory)
        assert np.array_equal(out[::2], np.full(16, 10))
        assert np.array_equal(out[1::2], np.full(16, 20))

    def test_uniform_branch_takes_one_path(self):
        b = KernelBuilder("uniform")
        value = b.mov(0)
        cond = b.mov(1)
        with b.if_(cond) as branch:
            value = b.iadd(value, 5, dst=value)
            with branch.else_():
                value = b.iadd(value, 9, dst=value)
        b.st_global(b.imad(b.tid(), 4, 0x3000), value)
        memory = MemoryImage()
        trace = to_trace(run_one_warp(b.finish(), memory))
        assert output(memory)[0] == 5
        # A uniform branch must not create divergent events.
        assert trace.divergent_fraction() == 0.0

    def test_nested_divergence_reconverges(self):
        b = KernelBuilder("nested")
        tid = b.tid()
        value = b.mov(0)
        outer = b.setlt(b.and_(tid, 3), 2)  # lanes 0,1 mod 4
        inner = b.seteq(b.and_(tid, 1), 0)  # even lanes
        with b.if_(outer) as br:
            with b.if_(inner):
                value = b.iadd(value, 1, dst=value)
            value = b.iadd(value, 10, dst=value)
            with br.else_():
                value = b.iadd(value, 100, dst=value)
        value = b.iadd(value, 1000, dst=value)  # all lanes after reconvergence
        b.st_global(b.imad(tid, 4, 0x3000), value)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        out = output(memory)
        assert out[0] == 1011  # outer+inner
        assert out[1] == 1010  # outer only
        assert out[2] == 1100  # else path
        assert out[3] == 1100

    def test_data_dependent_loop_trip_counts(self):
        b = KernelBuilder("ragged")
        tid = b.tid()
        bound = b.and_(tid, 3)
        count = b.mov(0)
        i = b.mov(0)
        with b.while_(lambda: b.setlt(i, bound)):
            count = b.iadd(count, 1, dst=count)
            i = b.iadd(i, 1, dst=i)
        b.st_global(b.imad(tid, 4, 0x3000), count)
        memory = MemoryImage()
        run_one_warp(b.finish(), memory)
        out = output(memory)
        assert np.array_equal(out[:4], np.array([0, 1, 2, 3]))

    def test_runaway_loop_detected(self):
        b = KernelBuilder("forever")
        one = b.mov(1)
        with b.while_(lambda: one):
            b.iadd(one, 0)
        kernel = b.finish()
        with pytest.raises(ExecutionError, match="exceeded"):
            run_kernel(
                kernel,
                LaunchConfig(1, 32),
                MemoryImage(),
                max_warp_instructions=1000,
            )


class TestLaunchShapes:
    def test_multi_cta(self, saxpy_kernel, simple_memory):
        run_kernel(saxpy_kernel, LaunchConfig(grid_dim=2, cta_dim=32), simple_memory)
        out = simple_memory.read_array(0x3000, 64)
        expected = 2 * np.arange(64) + 100 + np.arange(64)
        assert np.array_equal(out, expected.astype(np.uint32))

    def test_partial_tail_warp_lanes_inactive(self):
        b = KernelBuilder("partial")
        tid = b.tid()
        b.st_global(b.imad(tid, 4, 0x3000), b.iadd(tid, 1))
        memory = MemoryImage()
        run_kernel(b.finish(), LaunchConfig(grid_dim=1, cta_dim=40), memory)
        out = memory.read_array(0x3000, 48)
        assert np.array_equal(out[:40], np.arange(1, 41, dtype=np.uint32))
        assert not out[40:].any()  # inactive lanes never stored

    def test_warp_size_64(self, saxpy_kernel, simple_memory):
        trace = to_trace(
            run_kernel(
                saxpy_kernel,
                LaunchConfig(grid_dim=1, cta_dim=64),
                simple_memory,
                warp_size=64,
            )
        )
        assert len(trace.warps) == 1
        assert trace.warp_size == 64

    def test_special_registers(self):
        b = KernelBuilder("specials")
        total = b.iadd(b.imul(b.ctaid(), b.ntid()), b.lane())
        b.st_global(b.imad(b.tid(), 4, 0x3000), total)
        memory = MemoryImage()
        run_kernel(b.finish(), LaunchConfig(grid_dim=2, cta_dim=32), memory)
        out = memory.read_array(0x3000, 64)
        assert np.array_equal(out, np.arange(64, dtype=np.uint32))


class TestSharedMemory:
    def test_shared_is_per_cta(self):
        b = KernelBuilder("shared")
        lane_addr = b.imul(b.lane(), 4)
        b.st_shared(lane_addr, b.ctaid())
        value = b.ld_shared(lane_addr)
        b.st_global(b.imad(b.tid(), 4, 0x3000), value)
        memory = MemoryImage()
        run_kernel(b.finish(), LaunchConfig(grid_dim=2, cta_dim=32), memory)
        out = memory.read_array(0x3000, 64)
        assert np.array_equal(out[:32], np.zeros(32, dtype=np.uint32))
        assert np.array_equal(out[32:], np.ones(32, dtype=np.uint32))


class TestTraceContents:
    def test_dst_values_snapshot_full_register(self, divergent_kernel):
        memory = MemoryImage()
        trace = to_trace(run_one_warp(divergent_kernel, memory))
        writes = [e for e in trace.warps[0] if e.dst_values is not None]
        assert all(e.dst_values.shape == (32,) for e in writes)

    def test_branch_events_recorded(self, divergent_kernel):
        trace = to_trace(run_one_warp(divergent_kernel, MemoryImage()))
        from repro.isa.opcodes import Opcode

        branches = [e for e in trace.warps[0] if e.opcode is Opcode.BRA]
        assert len(branches) == 1
        assert branches[0].active_mask == 0xFFFFFFFF

    def test_varying_special_flagged(self):
        b = KernelBuilder("varying")
        b.tid()
        b.ctaid()
        trace = to_trace(run_one_warp(b.finish(), MemoryImage()))
        events = list(trace.warps[0])
        assert events[0].varying_special_src  # mov from %tid
        assert not events[1].varying_special_src  # mov from %ctaid

    def test_addresses_recorded_for_memory_ops(self, saxpy_kernel, simple_memory):
        trace = to_trace(run_one_warp(saxpy_kernel, simple_memory))
        from repro.isa.opcodes import OpCategory

        mem_events = [e for e in trace.warps[0] if e.category is OpCategory.MEM]
        assert len(mem_events) == 3
        assert all(e.addresses is not None for e in mem_events)
