"""Behavioural tests for the cycle-level SM simulator."""

import pytest

from repro.config import GpuConfig
from repro.errors import TimingError
from repro.isa.opcodes import OpCategory
from repro.timing.ops import SCALAR_RF_BANK, TimingOp
from repro.timing.sm import SmSimulator

CONFIG = GpuConfig()


def alu_op(dst=None, srcs=(), banks=None, dispatch=2, inserted=False):
    banks = tuple(banks) if banks is not None else tuple(r % 16 for r in srcs)
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=banks,
        dispatch_cycles=dispatch,
        long_latency=False,
        is_store=False,
        inserted=inserted,
    )


def mem_op(dst, addr_reg, segments=(0,)):
    return TimingOp(
        category=OpCategory.MEM,
        dst=dst,
        src_regs=(addr_reg,),
        src_banks=(addr_reg % 16,),
        dispatch_cycles=max(2, len(segments)),
        long_latency=False,
        is_store=False,
        mem_segments=tuple(segments),
    )


class TestBasics:
    def test_empty_simulation(self):
        result = SmSimulator([], CONFIG).run()
        assert result.cycles == 0
        assert result.instructions == 0

    def test_single_op_completes(self):
        result = SmSimulator([[alu_op(dst=0)]], CONFIG).run()
        assert result.instructions == 1
        assert result.cycles >= 2

    def test_all_warps_complete(self):
        warps = [[alu_op(dst=0), alu_op(dst=1, srcs=(0,))] for _ in range(8)]
        result = SmSimulator(warps, CONFIG).run()
        assert result.instructions == 16

    def test_empty_warps_handled(self):
        warps = [[], [alu_op(dst=0)], []]
        result = SmSimulator(warps, CONFIG).run()
        assert result.instructions == 1

    def test_more_warps_than_residency(self):
        warps = [[alu_op(dst=0)] for _ in range(60)]  # > 48 resident
        result = SmSimulator(warps, CONFIG).run()
        assert result.instructions == 60


class TestDependencies:
    def test_dependent_chain_pays_latency(self):
        chain = [alu_op(dst=0)]
        for _ in range(4):
            chain.append(alu_op(dst=0, srcs=(0,)))
        result = SmSimulator([chain], CONFIG).run()
        # Five ops, each waiting for the previous write-back.
        assert result.cycles >= 5 * CONFIG.alu_latency

    def test_independent_ops_pipeline(self):
        independent = [alu_op(dst=i) for i in range(10)]
        dependent = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(9)]
        fast = SmSimulator([independent], CONFIG).run()
        slow = SmSimulator([dependent], CONFIG).run()
        assert fast.cycles < slow.cycles

    def test_extra_latency_slows_dependent_chain(self):
        chain = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(9)]
        base = SmSimulator([chain], CONFIG).run()
        stretched = SmSimulator([chain], CONFIG, extra_latency=3).run()
        assert stretched.cycles >= base.cycles + 3 * 9


class TestStructuralHazards:
    def test_scalar_bank_serializes(self):
        # Many warps all reading two scalar-RF operands per op.
        warps = [
            [alu_op(dst=1, srcs=(2, 3), banks=(SCALAR_RF_BANK, SCALAR_RF_BANK))
             for _ in range(5)]
            for _ in range(8)
        ]
        conflicted = SmSimulator(warps, CONFIG).run()
        assert conflicted.scalar_bank_conflicts > 0

    def test_bank_conflicts_counted(self):
        # Two source registers in the same bank conflict.
        warps = [[alu_op(dst=1, srcs=(0, 16))] for _ in range(4)]  # both bank 0
        result = SmSimulator(warps, CONFIG).run()
        assert result.bank_conflict_cycles > 0

    def test_memory_latency_observed(self):
        warp = [mem_op(dst=0, addr_reg=1), alu_op(dst=2, srcs=(0,))]
        result = SmSimulator([warp], CONFIG).run()
        # Cold DRAM access: hundreds of cycles before the dependent op.
        assert result.cycles > 300
        assert result.memory_counts.dram_accesses == 1

    def test_deadlock_guard_raises(self):
        with pytest.raises(TimingError, match="exceeded"):
            chain = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(50)]
            SmSimulator([chain], CONFIG).run(max_cycles=10)


class TestCounting:
    def test_inserted_ops_excluded_from_useful(self):
        warp = [alu_op(dst=0, inserted=True), alu_op(dst=1)]
        result = SmSimulator([warp], CONFIG).run()
        assert result.instructions == 2
        assert result.useful_instructions == 1
        assert result.ipc < result.raw_ipc

    def test_issue_split_across_schedulers(self):
        warps = [[alu_op(dst=0)] for _ in range(8)]
        result = SmSimulator(warps, CONFIG).run()
        assert len(result.issued_per_scheduler) == 2
        assert sum(result.issued_per_scheduler) == 8
        assert all(count == 4 for count in result.issued_per_scheduler)


class TestStallBreakdown:
    def test_dependent_chain_reports_no_ready_stalls(self):
        chain = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(5)]
        result = SmSimulator([chain], CONFIG).run()
        stalls = result.stalls
        no_ready = (
            stalls.scoreboard
            + stalls.branch_shadow
            + stalls.barrier
            + stalls.stream_exhausted
        )
        assert no_ready > 0
        assert stalls.total >= no_ready

    def test_collector_pressure_reported(self):
        # Many independent warps flood the 16-entry collector pool.
        independent = [[alu_op(dst=i % 8) for i in range(10)] for _ in range(8)]
        result = SmSimulator(independent, CONFIG).run()
        assert result.stalls.collectors_full > 0

    def test_stall_accounting_tiles_issue_slots_exactly(self):
        chain = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(5)]
        result = SmSimulator([chain], CONFIG).run()
        # Every issue slot (cycles × schedulers) is either an issue or
        # exactly one attributed stall — skipped-ahead dead cycles
        # included, since the skip replays each scheduler's cause.
        assert (
            result.stalls.total + sum(result.issued_per_scheduler)
            == result.cycles * CONFIG.schedulers_per_sm
        )


class TestConfigurableLatencies:
    def test_longer_alu_latency_slows_dependent_chain(self):
        def run(config):
            ops = [
                alu_op(dst=1, dispatch=2),
                alu_op(dst=2, srcs=(1,), dispatch=2),
            ]
            return SmSimulator([ops], config).run().cycles

        # A dependent chain pays the write-back latency twice, so
        # raising it must strictly grow the cycle count.
        slow = run(GpuConfig(alu_latency=40))
        fast = run(GpuConfig(alu_latency=4))
        assert slow > fast
