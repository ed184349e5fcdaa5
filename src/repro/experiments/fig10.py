"""Figure 10 — half-scalar eligibility versus warp size.

At warp size 64 the checking granularity stays at 16 threads, making
the metric "quarter-scalar".  Paper reference: the average rises from
~2% (32-thread warps) to ~5% (64-thread warps) because two scalar
32-thread instructions with different values merge into one 64-thread
instruction that is only chunk-scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table

#: Fixed checking granularity (lanes), per the paper.
GRANULARITY = 16
#: The summaries :func:`compute` reads.
SUMMARIES = ("fig10",)


@dataclass
class Fig10Row:
    abbr: str
    fraction_warp32: float
    fraction_warp64: float


@dataclass
class Fig10Data:
    rows: list[Fig10Row]

    @property
    def average_warp32(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.fraction_warp32 for r in self.rows) / len(self.rows)

    @property
    def average_warp64(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.fraction_warp64 for r in self.rows) / len(self.rows)


def compute(runner: ExperimentRunner) -> Fig10Data:
    """Regenerate Figure 10's warp-size sweep."""
    rows = []
    for abbr in runner.benchmark_names():
        stats32, stats64 = runner.summary(abbr, "fig10")
        rows.append(
            Fig10Row(
                abbr=abbr,
                fraction_warp32=stats32.chunk_scalar_fraction,
                fraction_warp64=stats64.chunk_scalar_fraction,
            )
        )
    return Fig10Data(rows=rows)


def render(data: Fig10Data) -> str:
    """Figure 10 as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{100 * row.fraction_warp32:.1f}",
            f"{100 * row.fraction_warp64:.1f}",
        )
        for row in data.rows
    ]
    table_rows.append(
        ("AVG", f"{100 * data.average_warp32:.1f}", f"{100 * data.average_warp64:.1f}")
    )
    body = render_table(
        ["bench", "half-scalar @32 (%)", "quarter-scalar @64 (%)"],
        table_rows,
        title="Figure 10: chunk-scalar instructions vs warp size (16-lane checks)",
    )
    return body + "\npaper: average grows from ~2% at warp 32 to ~5% at warp 64"
