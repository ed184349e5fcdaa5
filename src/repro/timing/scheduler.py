"""Warp-slot partition of the SM's schedulers.

Each SM has two schedulers (Table 1); warp slots are statically
partitioned by parity, as in Fermi.  A scheduler picks at most one
ready warp per cycle, greedy-then-oldest (GTO, GPGPU-Sim's default and
the configuration the paper evaluates) or loose round-robin (LRR).
"""

from __future__ import annotations


def scheduler_of_slot(slot: int, num_schedulers: int) -> int:
    """The scheduler owning a warp slot under the parity partition.

    Single source of truth shared by the SM engine and the timeline
    labels: slot ``s`` always belongs to scheduler ``s % n``.
    """
    return slot % num_schedulers


def partition_slots(scheduler_index: int, num_slots: int, num_schedulers: int) -> range:
    """The slots one scheduler owns, in age (slot-id) order."""
    return range(scheduler_index, num_slots, num_schedulers)
