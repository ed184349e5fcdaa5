"""What one SM simulation reports: cycles, issue and stall counts.

:class:`TimingResult` is the output of the event-driven SM engine
(:class:`~repro.timing.sm_event.EventSmSimulator`); the stall-cause
indices and precedence below are the taxonomy it attributes idle
scheduler-cycles to.  Cached ``result`` entries pickle these classes
by their path in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.timing.memory import MemoryAccessCounts

#: Sentinel for "blocked until the branch writes back".
_BLOCKED_ON_BRANCH = 1 << 60
#: Sentinel for "blocked at a CTA barrier".
_BLOCKED_ON_BARRIER = (1 << 60) + 1

#: Stall-cause indices into the per-scheduler accumulation arrays.  The
#: order doubles as classification precedence: when the warps of one
#: partition are blocked for different reasons in the same cycle, the
#: scheduler-cycle is attributed to the lowest index present.
STALL_SCOREBOARD = 0
STALL_BRANCH_SHADOW = 1
STALL_BARRIER = 2
STALL_STREAM_EXHAUSTED = 3
STALL_COLLECTORS_FULL = 4
STALL_BANK_CONFLICT = 5

#: Field names of :class:`StallBreakdown`, indexed by the constants above.
STALL_CAUSES = (
    "scoreboard",
    "branch_shadow",
    "barrier",
    "stream_exhausted",
    "collectors_full",
    "bank_conflict",
)


@dataclass
class StallBreakdown:
    """Why scheduler slots went unused, summed over all cycles.

    Each field counts scheduler-cycles (one scheduler idle for one
    cycle, skipped-ahead dead cycles included) attributed to exactly
    one cause:

    * ``scoreboard`` — some runnable warp in the partition had its next
      op blocked by an in-flight register (RAW/WAW/WAR, no bypassing);
    * ``branch_shadow`` — warps were waiting for an unresolved branch
      to write back, none scoreboard-blocked;
    * ``barrier`` — warps were parked at a CTA barrier, none blocked
      by the scoreboard or a branch;
    * ``stream_exhausted`` — the partition had nothing left to issue
      (empty slots, or fully-issued warps draining their last ops);
    * ``collectors_full`` — issue was suppressed because the
      operand-collector pool was full;
    * ``bank_conflict`` — the collector pool was full in a cycle whose
      bank arbitration serialized conflicting requests, so the
      back-pressure is attributable to RF-bank-conflict serialization
      (the single scalar-RF bank of §4.1 shows up here).

    Mixed-cause cycles are attributed by the fixed precedence
    ``scoreboard > branch_shadow > barrier > stream_exhausted`` (the
    :data:`STALL_CAUSES` index order), so the attribution is a
    deterministic function of machine state and bit-identical between
    the cycle-level and event-driven engines.
    """

    scoreboard: int = 0
    branch_shadow: int = 0
    barrier: int = 0
    stream_exhausted: int = 0
    collectors_full: int = 0
    bank_conflict: int = 0

    @property
    def total(self) -> int:
        return (
            self.scoreboard
            + self.branch_shadow
            + self.barrier
            + self.stream_exhausted
            + self.collectors_full
            + self.bank_conflict
        )

    def as_dict(self) -> dict[str, int]:
        """Cause name -> scheduler-cycles, in taxonomy order."""
        return {name: getattr(self, name) for name in STALL_CAUSES}


@dataclass
class TimingResult:
    """Outcome of one SM simulation."""

    cycles: int
    instructions: int
    memory_counts: MemoryAccessCounts
    useful_instructions: int = 0
    issued_per_scheduler: list[int] = field(default_factory=list)
    scalar_bank_conflicts: int = 0
    bank_conflict_cycles: int = 0
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    #: One breakdown per scheduler (empty for zero-warp streams);
    #: ``stalls`` is always their field-wise sum.
    stalls_per_scheduler: list[StallBreakdown] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """IPC over *useful* instructions — inserted decompress-moves
        and spills consume cycles but do not count as work, so
        architectures are compared on equal footing."""
        if self.cycles == 0:
            return 0.0
        return self.useful_instructions / self.cycles

    @property
    def raw_ipc(self) -> float:
        """IPC counting every dispatched op, inserted ones included."""
        return self.instructions / self.cycles if self.cycles else 0.0
