"""Unit tests for trace-to-timing-op lowering."""

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa import KernelBuilder
from repro.isa.opcodes import OpCategory
from repro.simt import MemoryImage
from repro.timing.ops import SCALAR_RF_BANK, build_timing_ops, coalesce_addresses

from tests.conftest import run_one_warp
from tests.oracles import process_trace_events

CONFIG = GpuConfig()


def ops_for(kernel_builder_fn, arch):
    kernel = kernel_builder_fn()
    trace = run_one_warp(kernel, MemoryImage())
    processed = process_trace_events(trace, arch, kernel.num_registers)
    return build_timing_ops(processed[0], arch, CONFIG, 32)


def sfu_kernel():
    b = KernelBuilder("sfu")
    x = b.i2f(b.tid())
    b.sin(x)
    return b.finish()


def scalar_sfu_kernel():
    b = KernelBuilder("scalar_sfu")
    x = b.i2f(b.mov(3))
    b.sin(x)
    return b.finish()


class TestCoalescing:
    def test_unit_stride_coalesces_to_one_segment(self):
        addrs = (0x1000 + 4 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xFFFFFFFF, 32)) == 1

    def test_strided_access_spreads(self):
        addrs = (0x1000 + 128 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xFFFFFFFF, 32)) == 32

    def test_mask_restricts_lanes(self):
        addrs = (0x1000 + 128 * np.arange(32)).astype(np.uint32)
        assert len(coalesce_addresses(addrs, 0xF, 32)) == 4

    def test_empty_mask(self):
        addrs = np.zeros(32, dtype=np.uint32)
        assert coalesce_addresses(addrs, 0, 32) == ()


class TestDispatchCycles:
    def test_sfu_full_warp_takes_eight_cycles(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 8

    def test_alu_full_warp_takes_two_cycles(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        alu_ops = [o for o in ops if o.category is OpCategory.ALU]
        assert all(o.dispatch_cycles == 2 for o in alu_ops)

    def test_paper_config_keeps_scalar_dispatch_width(self):
        ops = ops_for(scalar_sfu_kernel, ArchitectureConfig.gscalar())
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 8

    def test_fast_dispatch_ablation_shortens_scalar_sfu(self):
        arch = ArchitectureConfig.gscalar().replace(scalar_fast_dispatch=True)
        ops = ops_for(scalar_sfu_kernel, arch)
        sfu_ops = [o for o in ops if o.category is OpCategory.SFU]
        assert sfu_ops[0].dispatch_cycles == 1


class TestBankAssignment:
    def test_scalar_rf_reads_use_pseudo_bank(self):
        def chain():
            b = KernelBuilder("chain")
            c = b.mov(5)
            d = b.iadd(c, 1)
            b.iadd(d, c)
            return b.finish()

        ops = ops_for(chain, ArchitectureConfig.alu_scalar())
        banks = [bank for o in ops for bank in o.src_banks]
        assert SCALAR_RF_BANK in banks

    def test_vector_banks_modulo_16(self):
        ops = ops_for(sfu_kernel, ArchitectureConfig.baseline())
        for op in ops:
            for reg, bank in zip(op.src_regs, op.src_banks):
                assert bank == reg % CONFIG.register_file_banks


class TestInsertedOps:
    def test_decompress_move_becomes_inserted_op(self):
        def kernel():
            b = KernelBuilder("move")
            tid = b.tid()
            value = b.mov(3)
            cond = b.seteq(b.and_(tid, 1), 0)
            with b.if_(cond):
                value = b.mov(9, dst=value)
            return b.finish()

        ops = ops_for(kernel, ArchitectureConfig.gscalar())
        inserted = [o for o in ops if o.inserted]
        assert len(inserted) == 1
        assert inserted[0].category is OpCategory.ALU
