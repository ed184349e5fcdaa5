"""Per-benchmark workload statistics (``python -m repro suite``).

Prints, for every Table 2 benchmark, the dynamic characteristics the
proxies were tuned to (divergence, scalar-class mix, pipeline mix) —
the table used to validate the workloads against their published
signatures. Useful when adding or retuning a proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table


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
        count = max(1, len(self.rows))

        def mean(getter):
            return sum(getter(r) for r in self.rows) / count

        return SuiteRow(
            abbr="AVG",
            instructions=sum(r.instructions for r in self.rows),
            divergent=mean(lambda r: r.divergent),
            alu_scalar=mean(lambda r: r.alu_scalar),
            sfu_scalar=mean(lambda r: r.sfu_scalar),
            mem_scalar=mean(lambda r: r.mem_scalar),
            half_scalar=mean(lambda r: r.half_scalar),
            divergent_scalar=mean(lambda r: r.divergent_scalar),
            eligible=mean(lambda r: r.eligible),
            sfu_mix=mean(lambda r: r.sfu_mix),
            mem_mix=mean(lambda r: r.mem_mix),
        )


def compute(runner: ExperimentRunner) -> SuiteData:
    """Collect the statistics table over all 17 benchmarks."""
    return SuiteData(
        rows=[runner.summary(abbr, "suite") for abbr in runner.benchmark_names()]
    )


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
