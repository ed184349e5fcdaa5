"""Regression tests for three cycle-model fixes.

1. Stores are write-through/no-allocate: they must only *probe* the L1,
   never allocate lines or inflate the demand hit/miss statistics.
2. GTO greediness names a *slot*; when the slot's warp retires the
   preference must be dropped, not silently transferred to whatever
   warp is activated into the slot next.
3. CTAs activate as whole units (GigaThread-style), so a barrier can
   never wait on a CTA-mate that has no slot to run in, and a CTA that
   cannot fit on the SM at all is a clear error instead of a deadlock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.isa.opcodes import OpCategory
from repro.timing.memory import MemoryModel
from repro.timing.sm_event import EventSmSimulator

from tests.reference.sm import SmSimulator, WarpScheduler
from tests.reference.timing import TimingOp, from_ops
from tests.timing.test_sm_properties import random_ops


def _alu(dst=None, srcs=()):
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=tuple(r % 16 for r in srcs),
        dispatch_cycles=2,
        long_latency=False,
        is_store=False,
    )


_BARRIER = TimingOp(
    category=OpCategory.CTRL,
    dst=None,
    src_regs=(),
    src_banks=(),
    dispatch_cycles=1,
    long_latency=False,
    is_store=False,
    is_barrier=True,
)


class TestStoreNoAllocate:
    def test_store_does_not_allocate_l1_line(self):
        memory = MemoryModel()
        memory.access_global((7,), is_store=True)
        memory.access_global((7,), is_store=False)
        # The load must miss: the store left no line behind.
        assert memory.l1.misses == 1
        assert memory.l1.hits == 0

    def test_store_does_not_count_in_hit_miss_statistics(self):
        memory = MemoryModel()
        for _ in range(5):
            memory.access_global((3,), is_store=True)
        assert memory.l1.accesses == 0
        assert memory.l1.hit_rate() == 0.0

    def test_store_still_counts_power_traffic(self):
        memory = MemoryModel()
        memory.access_global((1, 2), is_store=True)
        assert memory.counts.l1_accesses == 2
        assert memory.counts.l2_accesses == 2
        assert memory.counts.dram_accesses == 0

    def test_store_latency_is_l1_hit_latency(self):
        memory = MemoryModel()
        assert memory.access_global((9,), is_store=True) == memory.l1_hit_latency

    def test_store_hit_refreshes_lru(self):
        memory = MemoryModel()
        sets = memory.l1.num_sets
        colliding = [k * sets for k in range(5)]  # all map to one 4-way set
        for segment in colliding[:4]:
            memory.access_global((segment,), is_store=False)
        # Refresh the oldest line via a store, then force one eviction.
        memory.access_global((colliding[0],), is_store=True)
        memory.access_global((colliding[4],), is_store=False)
        # The store-refreshed line survived; the true LRU was evicted.
        assert memory.access_global((colliding[0],), is_store=False) == (
            memory.l1_hit_latency
        )
        memory2 = MemoryModel()
        for segment in colliding[:4]:
            memory2.access_global((segment,), is_store=False)
        memory2.access_global((colliding[4],), is_store=False)
        assert memory2.access_global((colliding[0],), is_store=False) > (
            memory2.l1_hit_latency
        )


class TestGtoForget:
    def test_forget_drops_greedy_preference(self):
        scheduler = WarpScheduler([0, 2, 4], SchedulerPolicy.GTO)
        assert scheduler.pick({2}) == 2
        assert scheduler.pick({0, 2}) == 2  # greedy on the last slot
        scheduler.forget(2)
        assert scheduler.pick({0, 2}) == 0  # back to oldest

    def test_forget_of_other_slot_keeps_preference(self):
        scheduler = WarpScheduler([0, 2, 4], SchedulerPolicy.GTO)
        assert scheduler.pick({2}) == 2
        scheduler.forget(0)
        assert scheduler.pick({0, 2}) == 2

    def test_no_greedy_transfer_across_warp_replacement(self):
        """A retired warp's slot gets a new warp; GTO must treat it as
        a fresh candidate, not inherit the retiree's greedy claim.

        Two warps share slot 0's scheduler partition over time: warp 0
        retires quickly and warp 2 is activated into its slot while
        warp 1's long dependency chain runs in the other partition.
        Both engines must agree (the event engine replicates forget()).
        """
        config = GpuConfig(
            threads_per_sm=64, scheduler_policy=SchedulerPolicy.GTO
        )
        chain = [_alu(dst=0)] + [_alu(dst=0, srcs=(0,)) for _ in range(6)]
        warps = [[_alu(dst=1)], list(chain), list(chain)]
        ref = SmSimulator(warps, config).run()
        got = EventSmSimulator(from_ops(warps), config).run()
        assert ref == got
        assert ref.instructions == sum(len(w) for w in warps)


class TestWholeCtaActivation:
    def test_unfittable_cta_is_a_clear_error(self):
        config = GpuConfig(threads_per_sm=64)  # 2 warp slots
        warps = [[_BARRIER, _alu(dst=0)] for _ in range(3)]
        with pytest.raises(TimingError, match="residency"):
            SmSimulator(warps, config, warps_per_cta=3)
        with pytest.raises(TimingError, match="residency"):
            EventSmSimulator(from_ops(warps), config, warps_per_cta=3)

    def test_cta_spanning_generations_completes(self):
        """Two CTAs, one SM generation each: barriers inside the second
        CTA must resolve even though it was not initially resident."""
        config = GpuConfig(threads_per_sm=64)  # 2 warp slots
        warp = [_alu(dst=0), _BARRIER, _alu(dst=1, srcs=(0,))]
        warps = [list(warp) for _ in range(4)]  # 2 CTAs of 2 warps
        for simulator in (
            SmSimulator(warps, config, warps_per_cta=2),
            EventSmSimulator(from_ops(warps), config, warps_per_cta=2),
        ):
            result = simulator.run(max_cycles=100_000)
            assert result.instructions == 12

    def test_partial_trailing_cta_completes(self):
        config = GpuConfig(threads_per_sm=96)  # 3 warp slots
        warp = [_BARRIER, _alu(dst=0)]
        warps = [list(warp) for _ in range(5)]  # CTAs {0,1}, {2,3}, {4}
        ref = SmSimulator(warps, config, warps_per_cta=2).run()
        got = EventSmSimulator(
            from_ops(warps), config, warps_per_cta=2
        ).run()
        assert ref == got
        assert ref.instructions == 10

    @settings(max_examples=40, deadline=None)
    @given(
        warps=st.lists(random_ops(), min_size=2, max_size=8),
        warps_per_cta=st.sampled_from([1, 2, 3]),
        positions=st.data(),
    )
    def test_randomized_barrier_placements_never_deadlock(
        self, warps, warps_per_cta, positions
    ):
        """CTA-uniform barrier *counts* at arbitrary per-warp positions
        must always finish, even with fewer slots than warps."""
        barriers = positions.draw(st.integers(min_value=1, max_value=3))
        placed = []
        for ops in warps:
            ops = list(ops)
            for _ in range(barriers):
                index = positions.draw(
                    st.integers(min_value=0, max_value=len(ops))
                )
                ops.insert(index, _BARRIER)
            placed.append(ops)
        config = GpuConfig(threads_per_sm=96)  # 3 slots < up to 8 warps
        if min(warps_per_cta, len(placed)) > min(3, len(placed)):
            with pytest.raises(TimingError, match="residency"):
                SmSimulator(placed, config, warps_per_cta=warps_per_cta)
            return
        ref = SmSimulator(placed, config, warps_per_cta=warps_per_cta).run(
            max_cycles=2_000_000
        )
        got = EventSmSimulator(
            from_ops(placed), config, warps_per_cta=warps_per_cta
        ).run(max_cycles=2_000_000)
        assert ref == got
        assert ref.instructions == sum(len(w) for w in placed)
