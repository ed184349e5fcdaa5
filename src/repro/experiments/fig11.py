"""Figure 11 — normalized power efficiency (IPC/W) and performance.

Series, all normalized to the baseline GPU:

* ``ALU Scalar``            — prior scalar architecture [3],
* ``G-Scalar w/o divergent``— scalar on all pipelines + half-warp,
* ``G-Scalar``              — full proposal (adds divergent scalar),
* ``G-Scalar (IPC)``        — raw performance with the +3-cycle stretch.

Paper reference: +24% IPC/W vs baseline and +15% vs ALU-scalar on
average; BP peaks at +79%; average IPC loss 1.7% with LC worst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner, paper_architectures
from repro.experiments.tables import mean, render_table


@dataclass
class Fig11Row:
    abbr: str
    ipc_per_watt: dict[str, float]  # arch name -> absolute IPC/W
    ipc: dict[str, float]  # arch name -> absolute IPC

    def normalized_efficiency(self, arch_name: str) -> float:
        base = self.ipc_per_watt["baseline"]
        return self.ipc_per_watt[arch_name] / base if base else 0.0

    def normalized_ipc(self, arch_name: str) -> float:
        base = self.ipc["baseline"]
        return self.ipc[arch_name] / base if base else 0.0


@dataclass
class Fig11Data:
    rows: list[Fig11Row]

    def average_efficiency(self, arch_name: str) -> float:
        """Mean normalized IPC/W of one architecture."""
        return mean(r.normalized_efficiency(arch_name) for r in self.rows)

    @property
    def average_gscalar_efficiency(self) -> float:
        """Mean normalized IPC/W of full G-Scalar (paper: 1.24)."""
        return self.average_efficiency("gscalar")

    @property
    def average_alu_scalar_efficiency(self) -> float:
        return self.average_efficiency("alu_scalar")

    @property
    def average_gscalar_ipc(self) -> float:
        """Mean normalized IPC of G-Scalar (paper: ~0.983)."""
        return mean(r.normalized_ipc("gscalar") for r in self.rows)


#: The architectures whose power reports :func:`compute` reads.
ARCHITECTURES = paper_architectures()


def compute(runner: ExperimentRunner) -> Fig11Data:
    """Regenerate Figure 11: all benchmarks x all architectures."""
    rows = []
    for abbr in runner.benchmark_names():
        efficiency: dict[str, float] = {}
        ipc: dict[str, float] = {}
        for arch in ARCHITECTURES:
            report = runner.power(abbr, arch)
            efficiency[arch.name] = report.ipc_per_watt
            ipc[arch.name] = report.ipc
        rows.append(Fig11Row(abbr=abbr, ipc_per_watt=efficiency, ipc=ipc))
    return Fig11Data(rows=rows)


def render(data: Fig11Data) -> str:
    """Figure 11 as a text table (values normalized to baseline)."""
    table_rows = []
    for row in data.rows:
        table_rows.append(
            (
                row.abbr,
                f"{row.normalized_efficiency('alu_scalar'):.2f}",
                f"{row.normalized_efficiency('gscalar_no_divergent'):.2f}",
                f"{row.normalized_efficiency('gscalar'):.2f}",
                f"{row.normalized_ipc('gscalar'):.3f}",
            )
        )
    table_rows.append(
        (
            "AVG",
            f"{data.average_alu_scalar_efficiency:.2f}",
            f"{data.average_efficiency('gscalar_no_divergent'):.2f}",
            f"{data.average_gscalar_efficiency:.2f}",
            f"{data.average_gscalar_ipc:.3f}",
        )
    )
    body = render_table(
        ["bench", "ALU scalar", "G-Scalar w/o div", "G-Scalar", "G-Scalar (IPC)"],
        table_rows,
        title="Figure 11: normalized IPC/W (and IPC) vs baseline",
    )
    return body + (
        "\npaper averages: G-Scalar 1.24x baseline, 1.15x ALU-scalar; "
        "IPC 0.983 (-1.7%)"
    )
