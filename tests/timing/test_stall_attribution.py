"""Tests for the per-scheduler stall-cause taxonomy.

Both SM engines attribute every idle scheduler-cycle to one of the six
causes in :data:`repro.timing.sm.STALL_CAUSES`.  These tests pin the
accounting invariant (issues + attributed stalls tile ``cycles ×
schedulers`` exactly, per scheduler and in aggregate), the cause
semantics on constructed streams, and the deprecated two-bucket
back-compat surface.
"""

import dataclasses

import pytest

from repro.config import GpuConfig
from repro.isa.opcodes import OpCategory
from repro.timing.ops import TimingOp, TimingOpTable
from repro.timing.sm import STALL_CAUSES, SmSimulator, StallBreakdown
from repro.timing.sm_event import EventSmSimulator

CONFIG = GpuConfig()


def alu_op(dst=None, srcs=(), dispatch=2):
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=tuple(r % 16 for r in srcs),
        dispatch_cycles=dispatch,
        long_latency=False,
        is_store=False,
    )


def barrier_op():
    return TimingOp(
        category=OpCategory.CTRL,
        dst=None,
        src_regs=(),
        src_banks=(),
        dispatch_cycles=1,
        long_latency=False,
        is_store=False,
        is_barrier=True,
    )


def run_both(warps, config=CONFIG, warps_per_cta=None):
    ref = SmSimulator(warps, config, warps_per_cta=warps_per_cta).run()
    got = EventSmSimulator(
        TimingOpTable.from_ops(warps), config, warps_per_cta=warps_per_cta
    ).run()
    assert ref == got
    return ref


class TestAccountingInvariant:
    @pytest.mark.parametrize(
        "warps",
        [
            [[alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(5)]],
            [[alu_op(dst=i) for i in range(10)] for _ in range(8)],
            [[], [alu_op(dst=0)], []],
        ],
        ids=["dependent-chain", "collector-pressure", "sparse"],
    )
    def test_slots_tile_exactly(self, warps):
        result = run_both(warps)
        schedulers = CONFIG.schedulers_per_sm
        assert len(result.stalls_per_scheduler) == schedulers
        # Per scheduler: one issue or one attributed stall per cycle.
        for index, breakdown in enumerate(result.stalls_per_scheduler):
            issued = result.issued_per_scheduler[index]
            assert issued + breakdown.total == result.cycles
        # The aggregate is the field-wise sum of the per-scheduler rows.
        for cause in STALL_CAUSES:
            assert getattr(result.stalls, cause) == sum(
                getattr(b, cause) for b in result.stalls_per_scheduler
            )

    def test_empty_simulation_has_no_attribution(self):
        result = run_both([])
        assert result.stalls == StallBreakdown()
        assert result.stalls_per_scheduler == []


class TestCauseSemantics:
    def test_raw_chain_is_scoreboard(self):
        chain = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(5)]
        result = run_both([chain])
        assert result.stalls.scoreboard > 0

    def test_lone_warp_leaves_other_scheduler_exhausted(self):
        # One warp occupies slot 0 (scheduler 0); scheduler 1 has no
        # stream at all, so its every cycle is stream_exhausted.
        result = run_both([[alu_op(dst=0)]])
        empty = result.stalls_per_scheduler[1]
        assert empty.stream_exhausted == result.cycles
        assert empty.total == empty.stream_exhausted

    def test_barrier_wait_is_attributed_to_barrier(self):
        # Warp 0 reaches the barrier immediately; warp 1 first walks a
        # dependence chain, so warp 0 parks at the barrier for many
        # cycles and scheduler 0 reports them as barrier stalls.  (The
        # barrier must not be the warp's final op — a parked warp with
        # an exhausted stream classifies as stream_exhausted.)
        slow = [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(4)]
        warps = [
            [barrier_op(), alu_op(dst=2)],
            slow + [barrier_op(), alu_op(dst=3)],
        ]
        result = run_both(warps, warps_per_cta=2)
        assert result.stalls.barrier > 0

    def test_post_barrier_cycle_counts_as_barrier_not_scoreboard(self):
        # The cycle right after release (blocked_until == cycle + 1)
        # still classifies as barrier, not scoreboard.
        warps = [[barrier_op(), alu_op(dst=0)], [barrier_op(), alu_op(dst=1)]]
        result = run_both(warps, warps_per_cta=2)
        assert result.stalls.scoreboard == 0

    def test_collector_pressure_splits_full_vs_conflict(self):
        # A starved collector pool (1 entry) with same-bank operands:
        # issue blocks on the full pool while the survivor serializes
        # its bank conflicts, so the full cycles attribute to the
        # conflict bucket rather than plain collectors_full.
        config = GpuConfig(operand_collectors_per_sm=1)
        warps = [
            [alu_op(dst=1, srcs=(0, 16)) for _ in range(4)] for _ in range(8)
        ]
        result = run_both(warps, config=config)
        assert result.stalls.collectors_full + result.stalls.bank_conflict > 0
        assert result.stalls.bank_conflict > 0


class TestBackCompat:
    def test_total_sums_every_cause(self):
        breakdown = StallBreakdown(
            scoreboard=3, branch_shadow=2, barrier=1, stream_exhausted=4,
            collectors_full=7, bank_conflict=5,
        )
        assert breakdown.total == 3 + 2 + 1 + 4 + 7 + 5

    def test_as_dict_order_matches_taxonomy(self):
        breakdown = StallBreakdown()
        assert tuple(breakdown.as_dict()) == STALL_CAUSES

    def test_no_ready_warp_is_not_a_field(self):
        names = {field.name for field in dataclasses.fields(StallBreakdown)}
        assert "no_ready_warp" not in names
        assert not hasattr(StallBreakdown(), "no_ready_warp")
        assert names == set(STALL_CAUSES)
