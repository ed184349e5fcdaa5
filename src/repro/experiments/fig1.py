"""Figure 1 — percentage of divergent and divergent-scalar instructions.

Paper reference: 28% of total instructions are divergent on average and
45% of those divergent instructions are divergent-scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.divergence import DivergenceStats
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table


@dataclass
class Fig1Row:
    abbr: str
    stats: DivergenceStats


@dataclass
class Fig1Data:
    rows: list[Fig1Row]

    @property
    def average_divergent(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.stats.divergent_fraction for r in self.rows) / len(self.rows)

    @property
    def average_divergent_scalar(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.stats.divergent_scalar_fraction for r in self.rows) / len(self.rows)

    @property
    def average_scalar_share_of_divergent(self) -> float:
        """The paper's "45% of divergent instructions" figure."""
        divergent = self.average_divergent
        if divergent == 0:
            return 0.0
        return self.average_divergent_scalar / divergent


def compute(runner: ExperimentRunner) -> Fig1Data:
    """Regenerate Figure 1's series over all 17 benchmarks."""
    return Fig1Data(
        rows=[
            Fig1Row(abbr=abbr, stats=runner.summary(abbr, "fig1"))
            for abbr in runner.benchmark_names()
        ]
    )


def render(data: Fig1Data) -> str:
    """Figure 1 as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{100 * row.stats.divergent_fraction:.1f}",
            f"{100 * row.stats.divergent_scalar_fraction:.1f}",
        )
        for row in data.rows
    ]
    table_rows.append(
        (
            "AVG",
            f"{100 * data.average_divergent:.1f}",
            f"{100 * data.average_divergent_scalar:.1f}",
        )
    )
    body = render_table(
        ["bench", "divergent %", "divergent scalar %"],
        table_rows,
        title="Figure 1: divergent / divergent-scalar instruction share",
    )
    footer = (
        f"\ndivergent-scalar share of divergent instructions: "
        f"{100 * data.average_scalar_share_of_divergent:.0f}% "
        "(paper: 45%; paper divergent avg: 28%)"
    )
    return body + footer
