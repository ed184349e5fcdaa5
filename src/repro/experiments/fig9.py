"""Figure 9 — percentage of instructions eligible for scalar execution.

Stacked series: "ALU scalar" (prior work), "+ SFU/mem" ("all scalar"),
"+ half-warp", "+ divergent" (G-Scalar).  Paper averages: 22% for ALU
scalar, rising to 40% under G-Scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import mean, render_table
from repro.scalar.eligibility import ScalarClass

#: The summaries :func:`compute` reads.
SUMMARIES = ("counts",)


@dataclass
class Fig9Row:
    abbr: str
    alu_scalar: float
    sfu_mem_scalar: float
    half_scalar: float
    divergent_scalar: float

    @property
    def total_eligible(self) -> float:
        return (
            self.alu_scalar
            + self.sfu_mem_scalar
            + self.half_scalar
            + self.divergent_scalar
        )


@dataclass
class Fig9Data:
    rows: list[Fig9Row]

    @property
    def average_alu_scalar(self) -> float:
        return mean(r.alu_scalar for r in self.rows)

    @property
    def average_total(self) -> float:
        return mean(r.total_eligible for r in self.rows)


def compute(runner: ExperimentRunner) -> Fig9Data:
    """Regenerate Figure 9's stacked eligibility series."""
    rows = []
    for abbr in runner.benchmark_names():
        stats = runner.summary(abbr, "counts")
        rows.append(
            Fig9Row(
                abbr=abbr,
                alu_scalar=stats.fraction(ScalarClass.ALU_SCALAR),
                sfu_mem_scalar=(
                    stats.fraction(ScalarClass.SFU_SCALAR)
                    + stats.fraction(ScalarClass.MEM_SCALAR)
                ),
                half_scalar=stats.fraction(ScalarClass.HALF_SCALAR),
                divergent_scalar=stats.fraction(ScalarClass.DIVERGENT_SCALAR),
            )
        )
    return Fig9Data(rows=rows)


def render(data: Fig9Data) -> str:
    """Figure 9 as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{100 * row.alu_scalar:.1f}",
            f"{100 * row.sfu_mem_scalar:.1f}",
            f"{100 * row.half_scalar:.1f}",
            f"{100 * row.divergent_scalar:.1f}",
            f"{100 * row.total_eligible:.1f}",
        )
        for row in data.rows
    ]
    table_rows.append(
        (
            "AVG",
            f"{100 * data.average_alu_scalar:.1f}",
            f"{100 * mean(r.sfu_mem_scalar for r in data.rows):.1f}",
            f"{100 * mean(r.half_scalar for r in data.rows):.1f}",
            f"{100 * mean(r.divergent_scalar for r in data.rows):.1f}",
            f"{100 * data.average_total:.1f}",
        )
    )
    body = render_table(
        ["bench", "ALU scalar", "+SFU/mem", "+half", "+divergent", "total"],
        table_rows,
        title="Figure 9: instructions eligible for scalar execution (%)",
    )
    return body + "\npaper averages: ALU scalar 22 -> G-Scalar total 40"
