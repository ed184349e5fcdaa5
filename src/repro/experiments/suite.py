"""Per-benchmark workload statistics (``python -m repro suite``).

Prints, for every Table 2 benchmark, the dynamic characteristics the
proxies were tuned to (divergence, scalar-class mix, pipeline mix) —
the table used to validate the workloads against their published
signatures. Useful when adding or retuning a proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import mean, render_table
from repro.scalar.eligibility import ScalarClass

#: The summaries :func:`compute` reads.
SUMMARIES = ("counts",)


@dataclass
class SuiteRow:
    abbr: str
    instructions: int
    divergent: float
    alu_scalar: float
    sfu_scalar: float
    mem_scalar: float
    half_scalar: float
    divergent_scalar: float
    eligible: float
    sfu_mix: float
    mem_mix: float


@dataclass
class SuiteData:
    rows: list[SuiteRow]

    def averages(self) -> SuiteRow:
        rows = self.rows
        return SuiteRow(
            abbr="AVG",
            instructions=sum(r.instructions for r in rows),
            divergent=mean(r.divergent for r in rows),
            alu_scalar=mean(r.alu_scalar for r in rows),
            sfu_scalar=mean(r.sfu_scalar for r in rows),
            mem_scalar=mean(r.mem_scalar for r in rows),
            half_scalar=mean(r.half_scalar for r in rows),
            divergent_scalar=mean(r.divergent_scalar for r in rows),
            eligible=mean(r.eligible for r in rows),
            sfu_mix=mean(r.sfu_mix for r in rows),
            mem_mix=mean(r.mem_mix for r in rows),
        )


def compute(runner: ExperimentRunner) -> SuiteData:
    """Collect the statistics table over all 17 benchmarks."""
    rows = []
    for abbr in runner.benchmark_names():
        stats = runner.summary(abbr, "counts")
        total = max(1, stats.total_instructions)
        rows.append(
            SuiteRow(
                abbr=abbr,
                instructions=stats.total_instructions,
                divergent=stats.divergent_fraction,
                alu_scalar=stats.fraction(ScalarClass.ALU_SCALAR),
                sfu_scalar=stats.fraction(ScalarClass.SFU_SCALAR),
                mem_scalar=stats.fraction(ScalarClass.MEM_SCALAR),
                half_scalar=stats.fraction(ScalarClass.HALF_SCALAR),
                divergent_scalar=stats.fraction(ScalarClass.DIVERGENT_SCALAR),
                eligible=stats.eligible_fraction,
                sfu_mix=stats.sfu_instructions / total,
                mem_mix=stats.mem_instructions / total,
            )
        )
    return SuiteData(rows=rows)


def render(data: SuiteData) -> str:
    def cells(row: SuiteRow):
        return (
            row.abbr,
            str(row.instructions),
            f"{100 * row.divergent:.1f}",
            f"{100 * row.alu_scalar:.1f}",
            f"{100 * row.sfu_scalar:.1f}",
            f"{100 * row.mem_scalar:.1f}",
            f"{100 * row.half_scalar:.1f}",
            f"{100 * row.divergent_scalar:.1f}",
            f"{100 * row.eligible:.1f}",
            f"{100 * row.sfu_mix:.1f}",
            f"{100 * row.mem_mix:.1f}",
        )

    table_rows = [cells(row) for row in data.rows]
    table_rows.append(cells(data.averages()))
    return render_table(
        [
            "bench", "instrs", "div%", "ALUsc", "SFUsc", "MEMsc",
            "half", "divsc", "elig", "SFU%", "MEM%",
        ],
        table_rows,
        title="Workload-suite dynamic characteristics",
    )
