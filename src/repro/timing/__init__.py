"""SM timing model: op-table lowering and the event-driven SM engine."""

from repro.timing.gpu import simulate_architecture_columns
from repro.timing.memory import (
    MemoryAccessCounts,
    MemoryModel,
    SetAssociativeCache,
)
from repro.timing.ops import (
    SCALAR_RF_BANK,
    TimingOpTable,
    build_timing_ops_columns,
)
from repro.timing.scheduler import partition_slots, scheduler_of_slot
from repro.timing.sm import STALL_CAUSES, StallBreakdown, TimingResult
from repro.timing.sm_event import EventSmSimulator

__all__ = [
    "SCALAR_RF_BANK",
    "STALL_CAUSES",
    "EventSmSimulator",
    "MemoryAccessCounts",
    "MemoryModel",
    "SetAssociativeCache",
    "StallBreakdown",
    "TimingOpTable",
    "TimingResult",
    "build_timing_ops_columns",
    "partition_slots",
    "scheduler_of_slot",
    "simulate_architecture_columns",
]
