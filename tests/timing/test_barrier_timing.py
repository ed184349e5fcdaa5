"""Tests for CTA-barrier coordination in the SM timing model."""

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa import KernelBuilder
from repro.isa.opcodes import OpCategory
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.timing.gpu import lower_to_timing_ops, simulate_architecture
from repro.timing.ops import TimingOp
from repro.timing.sm import SmSimulator

from tests.oracles import process_trace_events

CONFIG = GpuConfig()


def alu_op(dst=None, srcs=(), long_latency=False):
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=tuple(r % 16 for r in srcs),
        dispatch_cycles=2,
        long_latency=long_latency,
        is_store=False,
    )


BARRIER = TimingOp(
    category=OpCategory.CTRL,
    dst=None,
    src_regs=(),
    src_banks=(),
    dispatch_cycles=1,
    long_latency=False,
    is_store=False,
    is_barrier=True,
)


class TestBarrierCoordination:
    def test_fast_warp_waits_for_slow_warp(self):
        slow = [alu_op(dst=0, long_latency=True)]
        for _ in range(3):
            slow.append(alu_op(dst=0, srcs=(0,), long_latency=True))
        slow.append(BARRIER)
        fast_tail = [alu_op(dst=1, srcs=(1,)) for _ in range(5)]
        fast = [alu_op(dst=1), BARRIER] + fast_tail

        together = SmSimulator([fast, slow], CONFIG, warps_per_cta=2).run()
        # The fast warp's tail cannot start before the slow warp's
        # dependent IDIV chain (~4 x 120 cycles) reaches the barrier.
        assert together.cycles > 4 * 100

    def test_independent_ctas_do_not_wait(self):
        slow = [alu_op(dst=0, long_latency=True) for _ in range(1)]
        slow += [alu_op(dst=0, srcs=(0,), long_latency=True) for _ in range(3)]
        slow.append(BARRIER)
        fast = [alu_op(dst=1), BARRIER]
        # Same streams, but each warp in its own CTA: barriers are local.
        result = SmSimulator([fast, slow], CONFIG, warps_per_cta=1).run()
        assert result.instructions == len(fast) + len(slow)

    def test_all_barrier_instructions_retire(self):
        warps = [[alu_op(dst=0), BARRIER, alu_op(dst=1)] for _ in range(4)]
        result = SmSimulator(warps, CONFIG, warps_per_cta=4).run()
        assert result.instructions == 12
        assert result.useful_instructions == 12

    def test_warp_finishing_before_sibling_barriers_is_tolerated_when_uniform(self):
        # All warps of the CTA have the same barrier count: fine.
        warps = [[BARRIER, alu_op(dst=0)] for _ in range(3)]
        result = SmSimulator(warps, CONFIG, warps_per_cta=3).run()
        assert result.instructions == 6


class TestEndToEndBarrierKernel:
    def test_reduction_kernel_through_timing(self):
        b = KernelBuilder("reduce_timing")
        lane_in_cta = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
        b.st_shared(b.imul(lane_in_cta, 4), lane_in_cta)
        b.barrier()
        partner = b.ld_shared(b.imul(b.xor(lane_in_cta, 32), 4))
        b.st_global(b.imad(b.tid(), 4, 0x2000), partner)
        kernel = b.finish()
        memory = MemoryImage()
        trace = run_kernel(kernel, LaunchConfig(1, 64), memory)
        arch = ArchitectureConfig.gscalar()
        processed = process_trace_events(trace, arch, kernel.num_registers)
        result = simulate_architecture(processed, arch, warps_per_cta=2)
        assert result.instructions == trace.total_instructions
        # And the functional output is the partner lane's id.
        out = memory.read_array(0x2000, 64)
        assert np.array_equal(out, (np.arange(64) ^ 32).astype(np.uint32))

    def test_barrier_lowering(self):
        b = KernelBuilder("lower")
        b.barrier()
        b.mov(1)
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())
        arch = ArchitectureConfig.baseline()
        processed = process_trace_events(trace, arch, kernel.num_registers)
        ops = lower_to_timing_ops(processed, arch, CONFIG, 32)
        assert ops[0][0].is_barrier
        assert not ops[0][1].is_barrier
