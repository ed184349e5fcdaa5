"""Figure 8 — register-file access distribution for operand values.

Paper reference: averages of 36% scalar, 17% 3-byte, 4% 2-byte and
7% 1-byte accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.similarity import CATEGORIES, AccessDistribution
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import mean, render_table

#: The summaries :func:`compute` reads.
SUMMARIES = ("fig8",)


@dataclass
class Fig8Row:
    abbr: str
    distribution: AccessDistribution


@dataclass
class Fig8Data:
    rows: list[Fig8Row]

    def average_fractions(self) -> dict[str, float]:
        fractions = [row.distribution.fractions() for row in self.rows]
        return {name: mean(f[name] for f in fractions) for name in CATEGORIES}


def compute(runner: ExperimentRunner) -> Fig8Data:
    """Regenerate Figure 8's stacked distribution."""
    return Fig8Data(
        rows=[
            Fig8Row(abbr=abbr, distribution=runner.summary(abbr, "fig8"))
            for abbr in runner.benchmark_names()
        ]
    )


def render(data: Fig8Data) -> str:
    """Figure 8 as a text table."""
    table_rows = []
    for row in data.rows:
        fractions = row.distribution.fractions()
        table_rows.append(
            [row.abbr] + [f"{100 * fractions[name]:.1f}" for name in CATEGORIES]
        )
    averages = data.average_fractions()
    table_rows.append(["AVG"] + [f"{100 * averages[name]:.1f}" for name in CATEGORIES])
    body = render_table(
        ["bench"] + list(CATEGORIES),
        table_rows,
        title="Figure 8: RF access distribution (% of operand reads)",
    )
    return body + "\npaper averages: scalar 36, 3-byte 17, 2-byte 4, 1-byte 7"
