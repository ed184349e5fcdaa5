"""Unit tests for warp schedulers."""

import pytest

from repro.config import SchedulerPolicy
from repro.errors import TimingError

from tests.reference.sm import WarpScheduler, partition_warps


class TestPartition:
    def test_parity_partition(self):
        schedulers = partition_warps(6, 2, SchedulerPolicy.LRR)
        assert schedulers[0].warp_ids == [0, 2, 4]
        assert schedulers[1].warp_ids == [1, 3, 5]

    def test_single_scheduler(self):
        schedulers = partition_warps(4, 1, SchedulerPolicy.GTO)
        assert schedulers[0].warp_ids == [0, 1, 2, 3]

    def test_zero_schedulers_rejected(self):
        with pytest.raises(TimingError):
            partition_warps(4, 0, SchedulerPolicy.GTO)


class TestGto:
    def test_greedy_sticks_with_last_warp(self):
        scheduler = WarpScheduler([0, 2, 4], SchedulerPolicy.GTO)
        assert scheduler.pick({0, 2, 4}) == 0
        assert scheduler.pick({0, 2, 4}) == 0  # greedy

    def test_falls_back_to_oldest(self):
        scheduler = WarpScheduler([0, 2, 4], SchedulerPolicy.GTO)
        scheduler.pick({0, 2, 4})
        assert scheduler.pick({2, 4}) == 2  # oldest ready

    def test_none_when_nothing_ready(self):
        scheduler = WarpScheduler([0, 2], SchedulerPolicy.GTO)
        assert scheduler.pick(set()) is None

    def test_ignores_foreign_warps(self):
        scheduler = WarpScheduler([0, 2], SchedulerPolicy.GTO)
        assert scheduler.pick({1, 3}) is None


class TestLrr:
    def test_round_robin_rotation(self):
        scheduler = WarpScheduler([0, 1, 2], SchedulerPolicy.LRR)
        picks = [scheduler.pick({0, 1, 2}) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_skips_unready(self):
        scheduler = WarpScheduler([0, 1, 2], SchedulerPolicy.LRR)
        scheduler.pick({0, 1, 2})  # -> 0
        assert scheduler.pick({2}) == 2
        assert scheduler.pick({0, 1, 2}) == 0
