"""Cycle-level SM timing model."""

from repro.timing.gpu import (
    lower_to_timing_ops,
    simulate_architecture,
    simulate_architecture_columns,
)
from repro.timing.memory import (
    MemoryAccessCounts,
    MemoryModel,
    SetAssociativeCache,
)
from repro.timing.ops import (
    SCALAR_RF_BANK,
    TimingOp,
    TimingOpTable,
    build_timing_ops,
    build_timing_ops_columns,
    coalesce_addresses,
)
from repro.timing.scheduler import (
    WarpScheduler,
    partition_slots,
    partition_warps,
    scheduler_of_slot,
)
from repro.timing.scoreboard import Scoreboard
from repro.timing.sm import (
    STALL_CAUSES,
    SmSimulator,
    StallBreakdown,
    TimingResult,
)
from repro.timing.sm_event import EventSmSimulator

__all__ = [
    "SCALAR_RF_BANK",
    "STALL_CAUSES",
    "EventSmSimulator",
    "MemoryAccessCounts",
    "MemoryModel",
    "Scoreboard",
    "SetAssociativeCache",
    "SmSimulator",
    "StallBreakdown",
    "TimingOp",
    "TimingOpTable",
    "TimingResult",
    "WarpScheduler",
    "build_timing_ops",
    "build_timing_ops_columns",
    "coalesce_addresses",
    "lower_to_timing_ops",
    "partition_slots",
    "partition_warps",
    "scheduler_of_slot",
    "simulate_architecture",
    "simulate_architecture_columns",
]
