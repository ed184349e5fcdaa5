"""Unit tests for the register-state tracker (EBR/BVR/D/FS machine)."""

import numpy as np

from repro.isa import KernelBuilder
from repro.scalar.eligibility import ScalarClass
from repro.scalar.tracker import trace_statistics
from repro.simt import MemoryImage
from repro.isa.opcodes import Opcode

from tests.conftest import run_one_warp
from tests.oracles import columns_from_classified
from tests.reference.classify import RegisterStateTracker, classify_trace, classify_warp
from tests.reference.trace import TraceEvent, to_trace

FULL = 0xFFFFFFFF
EVENS = 0x55555555


def write_event(dst, values, mask=FULL, srcs=(), opcode=Opcode.IADD):
    if opcode is Opcode.IADD and len(srcs) != 2:
        opcode = Opcode.MOV
        srcs = srcs or (99,)
        if len(srcs) != 1:
            opcode = Opcode.IADD
    return TraceEvent(
        opcode=opcode,
        dst=dst,
        src_regs=tuple(srcs),
        active_mask=mask,
        block_id=0,
        dst_values=np.asarray(values, dtype=np.uint32),
    )


class TestStateTransitions:
    def test_scalar_write_sets_enc_1111(self):
        tracker = RegisterStateTracker(8, 32)
        tracker.classify(write_event(0, np.full(32, 5), srcs=(1,)))
        state = tracker.state_of(0)
        assert state.enc == 4
        assert state.base == 5
        assert not state.divergent
        assert state.full_scalar

    def test_divergent_write_stores_mask_in_bvr(self):
        tracker = RegisterStateTracker(8, 32)
        values = np.zeros(32, dtype=np.uint32)
        values[::2] = 7
        tracker.classify(write_event(0, values, mask=EVENS, srcs=(1,)))
        state = tracker.state_of(0)
        assert state.divergent
        assert state.enc == 4  # active lanes all hold 7
        assert state.base == EVENS  # BVR repurposed as the mask

    def test_decompress_move_needed_only_for_compressed_dst(self):
        tracker = RegisterStateTracker(8, 32)
        # First write: compressed (scalar).
        tracker.classify(write_event(0, np.full(32, 5), srcs=(1,)))
        # Divergent overwrite -> needs the special move.
        item = tracker.classify(
            write_event(0, np.full(32, 9), mask=EVENS, srcs=(1,))
        )
        assert item.needs_decompress_move
        # Second divergent overwrite: already uncompressed -> no move.
        item2 = tracker.classify(
            write_event(0, np.full(32, 9), mask=EVENS, srcs=(1,))
        )
        assert not item2.needs_decompress_move

    def test_uncompressed_dst_needs_no_move(self):
        tracker = RegisterStateTracker(8, 32)
        rng = np.random.default_rng(0)
        random_values = rng.integers(0, 2**32, size=32, dtype=np.uint64).astype(
            np.uint32
        )
        tracker.classify(write_event(0, random_values, srcs=(1,)))
        item = tracker.classify(
            write_event(0, np.full(32, 9), mask=EVENS, srcs=(1,))
        )
        assert not item.needs_decompress_move

    def test_nondivergent_write_clears_d_bit(self):
        tracker = RegisterStateTracker(8, 32)
        tracker.classify(write_event(0, np.full(32, 7), mask=EVENS, srcs=(1,)))
        assert tracker.state_of(0).divergent
        tracker.classify(write_event(0, np.full(32, 8), srcs=(1,)))
        assert not tracker.state_of(0).divergent

    def test_initial_state_is_uncompressed(self):
        tracker = RegisterStateTracker(8, 32)
        state = tracker.state_of(3)
        assert state.enc == 0 and not state.divergent


class TestMaskMatching:
    def test_figure7_scenario(self):
        """r2 written divergently under mask M; the other path must not
        treat it as scalar even though enc == 1111."""
        tracker = RegisterStateTracker(8, 32)
        mask_a = 0x0000FFFF
        mask_b = 0xFFFF0000
        values = np.zeros(32, dtype=np.uint32)
        values[:16] = 42
        tracker.classify(write_event(2, values, mask=mask_a, srcs=(1,)))
        # Same-mask reader: divergent scalar.
        same = tracker.classify(
            TraceEvent(
                opcode=Opcode.MOV,
                dst=3,
                src_regs=(2,),
                active_mask=mask_a,
                block_id=0,
                dst_values=values.copy(),
            )
        )
        assert same.scalar_class is ScalarClass.DIVERGENT_SCALAR
        # Other-path reader: not eligible.
        values_b = np.zeros(32, dtype=np.uint32)
        other = tracker.classify(
            TraceEvent(
                opcode=Opcode.MOV,
                dst=4,
                src_regs=(2,),
                active_mask=mask_b,
                block_id=0,
                dst_values=values_b,
            )
        )
        assert other.scalar_class is ScalarClass.NOT_ELIGIBLE


class TestTraceLevel:
    def test_classify_trace_per_warp_isolation(self, divergent_kernel):
        trace = to_trace(run_one_warp(divergent_kernel, MemoryImage(), cta=64))
        classified = classify_trace(trace, divergent_kernel.num_registers)
        assert len(classified) == 2
        assert len(classified[0]) == len(trace.warps[0].events)

    def test_statistics_roll_up(self, divergent_kernel):
        trace = to_trace(run_one_warp(divergent_kernel, MemoryImage()))
        classified = classify_trace(trace, divergent_kernel.num_registers)
        stats = trace_statistics(columns_from_classified(classified, 32))
        assert stats.total_instructions == trace.total_instructions
        assert stats.divergent_instructions > 0
        assert sum(stats.class_counts.values()) == stats.total_instructions

    def test_scalar_chain_fully_eligible(self, scalar_heavy_kernel):
        trace = to_trace(run_one_warp(scalar_heavy_kernel, MemoryImage()))
        classified = classify_warp(trace.warps[0], scalar_heavy_kernel.num_registers)
        buckets = [item.scalar_class for item in classified]
        assert ScalarClass.SFU_SCALAR in buckets
        assert ScalarClass.ALU_SCALAR in buckets

    def test_divergent_scalar_chain_detected(self):
        b = KernelBuilder("divscalar")
        tid = b.tid()
        c = b.mov(10)
        cond = b.seteq(b.and_(tid, 1), 0)
        with b.if_(cond):
            x = b.iadd(c, 1)  # scalar sources under divergence
            y = b.iadd(x, 2)  # x is D=1, enc=1111, same mask
            b.iadd(y, 3)
        kernel = b.finish()
        trace = to_trace(run_one_warp(kernel, MemoryImage()))
        classified = classify_warp(trace.warps[0], kernel.num_registers)
        divergent_scalars = [
            i for i in classified if i.scalar_class is ScalarClass.DIVERGENT_SCALAR
        ]
        assert len(divergent_scalars) == 3
