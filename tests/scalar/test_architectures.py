"""Unit tests for per-architecture views of classified events."""

import numpy as np

from repro.config import ArchitectureConfig
from repro.isa import KernelBuilder
from repro.regfile.access import AccessKind
from repro.scalar.eligibility import ScalarClass
from repro.simt import MemoryImage

from tests.conftest import run_one_warp
from tests.oracles import process_trace_events
from tests.reference.classify import classify_trace
from tests.reference.interpret import process_classified, processed_statistics
from tests.reference.trace import to_trace

BASELINE = ArchitectureConfig.baseline()
ALU_SCALAR = ArchitectureConfig.alu_scalar()
GS_NO_DIV = ArchitectureConfig.gscalar_no_divergent()
GSCALAR = ArchitectureConfig.gscalar()


def scalar_chain_trace():
    b = KernelBuilder("chain")
    tid = b.tid()
    c = b.mov(5)
    d = b.iadd(c, 1)
    e = b.sin(b.i2f(d))
    addr = b.mov(0x1000)
    f = b.ld_global(addr)
    b.st_global(b.imad(tid, 4, 0x2000), b.iadd(f, tid))
    kernel = b.finish()
    return to_trace(run_one_warp(kernel, MemoryImage())), kernel


def divergent_scalar_trace():
    b = KernelBuilder("divergent_scalar")
    tid = b.tid()
    c = b.mov(5)
    cond = b.seteq(b.and_(tid, 1), 0)
    with b.if_(cond):
        x = b.iadd(c, 1)
        b.iadd(x, 2)
    kernel = b.finish()
    return to_trace(run_one_warp(kernel, MemoryImage())), kernel


class TestScalarExecutionDecisions:
    def test_baseline_never_scalar(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, BASELINE, kernel.num_registers)
        assert all(not p.scalar_executed for warp in processed for p in warp)

    def test_alu_scalar_takes_only_alu(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, ALU_SCALAR, kernel.num_registers)
        executed = [p for warp in processed for p in warp if p.scalar_executed]
        assert executed
        assert all(p.scalar_class is ScalarClass.ALU_SCALAR for p in executed)

    def test_gscalar_takes_sfu_and_mem(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, GSCALAR, kernel.num_registers)
        classes = {
            p.scalar_class for warp in processed for p in warp if p.scalar_executed
        }
        assert ScalarClass.SFU_SCALAR in classes
        assert ScalarClass.MEM_SCALAR in classes

    def test_divergent_scalar_gated_by_flag(self):
        trace, kernel = divergent_scalar_trace()
        without = process_trace_events(trace, GS_NO_DIV, kernel.num_registers)
        with_div = process_trace_events(trace, GSCALAR, kernel.num_registers)

        def executed_divergent(processed):
            return [
                p
                for warp in processed
                for p in warp
                if p.scalar_executed
                and p.scalar_class is ScalarClass.DIVERGENT_SCALAR
            ]

        assert not executed_divergent(without)
        assert len(executed_divergent(with_div)) == 2


class TestExecLanes:
    def test_scalar_execution_uses_one_lane(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, GSCALAR, kernel.num_registers)
        for warp in processed:
            for p in warp:
                if p.scalar_executed:
                    assert p.exec_lanes == 1

    def test_vector_execution_uses_active_lanes(self):
        trace, kernel = divergent_scalar_trace()
        processed = process_trace_events(trace, BASELINE, kernel.num_registers)
        for warp in processed:
            for p in warp:
                if p.classified.divergent and not p.scalar_executed:
                    assert p.exec_lanes == p.classified.event.active_lane_count()

    def test_control_consumes_no_exec_lanes(self):
        trace, kernel = divergent_scalar_trace()
        processed = process_trace_events(trace, BASELINE, kernel.num_registers)
        from repro.isa.opcodes import OpCategory

        for warp in processed:
            for p in warp:
                if p.classified.category is OpCategory.CTRL:
                    assert p.exec_lanes == 0


class TestRegisterFileAccesses:
    def test_baseline_all_full_accesses(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, BASELINE, kernel.num_registers)
        kinds = {
            a.kind for warp in processed for p in warp for a in p.rf_accesses
        }
        assert kinds <= {AccessKind.FULL_READ, AccessKind.FULL_WRITE,
                         AccessKind.PARTIAL_WRITE}

    def test_gscalar_scalar_reads_hit_sidecar_only(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, GSCALAR, kernel.num_registers)
        kinds = [
            a.kind for warp in processed for p in warp for a in p.rf_accesses
        ]
        assert AccessKind.SCALAR_READ in kinds
        assert AccessKind.SCALAR_WRITE in kinds

    def test_alu_scalar_uses_dedicated_rf(self):
        trace, kernel = scalar_chain_trace()
        processed = process_trace_events(trace, ALU_SCALAR, kernel.num_registers)
        kinds = [
            a.kind for warp in processed for p in warp for a in p.rf_accesses
        ]
        assert AccessKind.SCALAR_RF_READ in kinds
        assert AccessKind.SCALAR_RF_WRITE in kinds

    def test_divergent_write_is_partial_with_mask(self):
        trace, kernel = divergent_scalar_trace()
        processed = process_trace_events(trace, GSCALAR, kernel.num_registers)
        partials = [
            a
            for warp in processed
            for p in warp
            for a in p.rf_accesses
            if a.kind is AccessKind.PARTIAL_WRITE
        ]
        assert partials
        assert all(a.active_mask == 0x55555555 for a in partials)

    def test_decompress_move_adds_read_write_pair(self):
        b = KernelBuilder("move")
        tid = b.tid()
        value = b.mov(3)  # compressed scalar write
        cond = b.seteq(b.and_(tid, 1), 0)
        with b.if_(cond):
            value = b.mov(9, dst=value)  # divergent overwrite
        kernel = b.finish()
        trace = to_trace(run_one_warp(kernel, MemoryImage()))
        processed = process_trace_events(trace, GSCALAR, kernel.num_registers)
        movers = [
            p for warp in processed for p in warp if p.extra_instructions
        ]
        assert len(movers) == 1
        kinds = [a.kind for a in movers[0].rf_accesses]
        assert AccessKind.FULL_WRITE in kinds  # store back uncompressed
        assert AccessKind.PARTIAL_WRITE in kinds  # then the partial write

    def test_baseline_has_no_compression_ops(self):
        trace, kernel = scalar_chain_trace()
        stats = processed_statistics(
            process_trace_events(trace, BASELINE, kernel.num_registers)
        )
        assert stats.compressor_ops == 0
        assert stats.decompressor_ops == 0

    def test_gscalar_counts_compression_ops(self):
        trace, kernel = scalar_chain_trace()
        stats = processed_statistics(
            process_trace_events(trace, GSCALAR, kernel.num_registers)
        )
        assert stats.compressor_ops > 0


class TestProcessClassified:
    def test_matches_process_trace(self):
        trace, kernel = scalar_chain_trace()
        classified = classify_trace(trace, kernel.num_registers)
        a = process_trace_events(trace, GSCALAR, kernel.num_registers)
        b = process_classified(classified, GSCALAR, trace.warp_size)
        stats_a = processed_statistics(a)
        stats_b = processed_statistics(b)
        assert stats_a.scalar_executed == stats_b.scalar_executed
        assert stats_a.exec_lane_sum == stats_b.exec_lane_sum
