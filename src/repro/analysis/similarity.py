"""Register-file access-distribution analysis (Figure 8).

Figure 8 buckets every operand-value access: "scalar" when all 32
values are identical, "n-byte" when the first n most-significant bytes
match, "divergent" when the access comes from a divergent instruction,
and a remainder with no exploitable similarity.  The paper reports
averages of 36% / 17% / 4% / 7% for scalar / 3-byte / 2-byte / 1-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scalar.columns import ClassifiedColumns

#: Bucket names in Figure 8's order.
CATEGORIES = ("scalar", "3-byte", "2-byte", "1-byte", "divergent", "other")


@dataclass
class AccessDistribution:
    """Figure 8 histogram over register read accesses."""

    counts: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in CATEGORIES}
    )

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> dict[str, float]:
        total = max(1, self.total)
        return {name: count / total for name, count in self.counts.items()}

    def merge(self, other: "AccessDistribution") -> None:
        for name, count in other.counts.items():
            self.counts[name] += count


#: Category of a convergent read by the source's enc prefix length.
_ENC_CATEGORIES = ("other", "1-byte", "2-byte", "3-byte", "scalar")


def access_distribution(columns: ClassifiedColumns) -> AccessDistribution:
    """Bucket every source-register read per Figure 8's rules.

    Reads by a divergent instruction are "divergent"; D=1 registers
    read by convergent instructions are stored (and fetched)
    uncompressed, so they count as "other"; the remaining reads bucket
    by their enc prefix.
    """
    reader_divergent = np.repeat(columns.divergent, np.diff(columns.src_offsets))
    uncompressed = ~reader_divergent & columns.src_divergent
    by_enc = np.bincount(
        columns.src_enc[~reader_divergent & ~columns.src_divergent].astype(np.int64),
        minlength=len(_ENC_CATEGORIES),
    )
    distribution = AccessDistribution()
    for enc, category in enumerate(_ENC_CATEGORIES):
        distribution.counts[category] += int(by_enc[enc])
    distribution.counts["divergent"] = int(np.count_nonzero(reader_divergent))
    distribution.counts["other"] += int(np.count_nonzero(uncompressed))
    return distribution
