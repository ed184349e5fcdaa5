"""Half-register granularity and the Figure 9 classification counters.

:func:`trace_statistics` rolls a
:class:`~repro.scalar.columns.ClassifiedColumns` set up into a
:class:`TrackerStatistics` (instruction, divergence, decompress-move and
per-:class:`~repro.scalar.eligibility.ScalarClass` counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scalar.eligibility import SCALAR_CLASS_TO_ID, ScalarClass

#: Half-register granularity in lanes.  The paper fixes this at 16 even
#: for 64-thread warps ("quarter-scalar", Figure 10).
HALF_GRANULARITY = 16


@dataclass
class TrackerStatistics:
    """Aggregate counters over one tracked trace."""

    total_instructions: int = 0
    divergent_instructions: int = 0
    decompress_moves: int = 0
    class_counts: dict[ScalarClass, int] = field(
        default_factory=lambda: {c: 0 for c in ScalarClass}
    )

    def fraction(self, scalar_class: ScalarClass) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.class_counts[scalar_class] / self.total_instructions

    @property
    def eligible_fraction(self) -> float:
        """Fraction of instructions in any scalar bucket."""
        if self.total_instructions == 0:
            return 0.0
        eligible = self.total_instructions - self.class_counts[ScalarClass.NOT_ELIGIBLE]
        return eligible / self.total_instructions


def trace_statistics(columns) -> TrackerStatistics:
    """Aggregate classification counters over a
    :class:`~repro.scalar.columns.ClassifiedColumns` set."""
    counts = np.bincount(columns.scalar_class_ids, minlength=len(ScalarClass))
    return TrackerStatistics(
        total_instructions=columns.num_events,
        divergent_instructions=int(np.count_nonzero(columns.divergent)),
        decompress_moves=int(np.count_nonzero(columns.needs_move)),
        class_counts={c: int(counts[SCALAR_CLASS_TO_ID[c]]) for c in ScalarClass},
    )
