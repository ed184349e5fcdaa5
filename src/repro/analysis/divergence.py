"""Divergence statistics (Figure 1).

Figure 1 reports, per benchmark, the percentage of dynamic instructions
that are divergent and the percentage that are *divergent scalar* —
divergent instructions whose active-lane operands make them eligible
for scalar execution (§1: 28% and 45%-of-divergent on average).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scalar.columns import ClassifiedColumns
from repro.scalar.eligibility import SCALAR_CLASS_TO_ID, ScalarClass


@dataclass(frozen=True)
class DivergenceStats:
    """Figure 1 numbers for one benchmark."""

    total_instructions: int
    divergent_instructions: int
    divergent_scalar_instructions: int

    @property
    def divergent_fraction(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.divergent_instructions / self.total_instructions

    @property
    def divergent_scalar_fraction(self) -> float:
        """Divergent-scalar instructions as a fraction of *total*."""
        if self.total_instructions == 0:
            return 0.0
        return self.divergent_scalar_instructions / self.total_instructions

    @property
    def scalar_share_of_divergent(self) -> float:
        """Divergent-scalar as a fraction of divergent (the 45% number)."""
        if self.divergent_instructions == 0:
            return 0.0
        return self.divergent_scalar_instructions / self.divergent_instructions


def divergence_stats(columns: ClassifiedColumns) -> DivergenceStats:
    """Compute Figure 1 statistics from classified columns."""
    divergent = columns.divergent
    divergent_scalar = divergent & (
        columns.scalar_class_ids == SCALAR_CLASS_TO_ID[ScalarClass.DIVERGENT_SCALAR]
    )
    return DivergenceStats(
        total_instructions=columns.num_events,
        divergent_instructions=int(np.count_nonzero(divergent)),
        divergent_scalar_instructions=int(np.count_nonzero(divergent_scalar)),
    )
