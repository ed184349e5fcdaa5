"""Figure 12 — normalized register-file dynamic power.

Series normalized to the baseline RF: "scalar only" [3],
Warped-Compression (BDI) [4], and our byte-wise compression.  Paper
reference: scalar-only RF consumes 63% of baseline (a 37% saving); ours
consumes 46% (a 54% saving); ours also beats the BDI scheme.

The metric here is RF dynamic *energy* over the same trace, which equals
the paper's power ratio up to the (small) cycle-count differences
between architectures.  The baseline, scalar-only and our series are
the ``rf_pj`` of the runner's power reports for their architectures;
Warped-Compression is a storage model replayed over the columnar trace,
cached per benchmark as the ``fig12`` summary of its activity counts,
which :func:`compute` prices under the runner's energy parameters.
A standalone ``repro fig12`` therefore pays for SM timing once per
architecture it reads (:data:`ARCHITECTURES`), like ``fig11``; the
result sidecars of a ``--cache-dir`` cache it, and ``--jobs N``
prefetches it in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import mean, render_table
from repro.power.rf_techniques import RF_TECHNIQUES, technique_architecture

SERIES = ("scalar_rf", "wc_bdi", "ours")
#: The techniques read from the runner's power reports (``wc_bdi`` is
#: not an architecture) and the architectures :func:`compute` reads.
_MODELED = tuple(technique for technique in RF_TECHNIQUES if technique != "wc_bdi")
ARCHITECTURES = tuple(technique_architecture(technique) for technique in _MODELED)
#: The summaries :func:`compute` reads.
SUMMARIES = ("fig12",)


@dataclass
class Fig12Row:
    abbr: str
    normalized: dict[str, float]  # technique -> energy / baseline energy


@dataclass
class Fig12Data:
    rows: list[Fig12Row]

    def average(self, technique: str) -> float:
        return mean(r.normalized[technique] for r in self.rows)


def compute(runner: ExperimentRunner) -> Fig12Data:
    """Regenerate Figure 12 over all benchmarks."""
    rows = []
    for abbr in runner.benchmark_names():
        rf_pj = {
            technique: runner.power(abbr, arch).breakdown.rf_pj
            for technique, arch in zip(_MODELED, ARCHITECTURES)
        }
        rf_pj["wc_bdi"] = runner.summary(abbr, "fig12").energy(runner.params).rf_pj
        baseline = rf_pj["baseline"]
        normalized = {
            technique: rf_pj[technique] / baseline if baseline else 0.0
            for technique in SERIES
        }
        rows.append(Fig12Row(abbr=abbr, normalized=normalized))
    return Fig12Data(rows=rows)


def render(data: Fig12Data) -> str:
    """Figure 12 as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{row.normalized['scalar_rf']:.2f}",
            f"{row.normalized['wc_bdi']:.2f}",
            f"{row.normalized['ours']:.2f}",
        )
        for row in data.rows
    ]
    table_rows.append(
        (
            "AVG",
            f"{data.average('scalar_rf'):.2f}",
            f"{data.average('wc_bdi'):.2f}",
            f"{data.average('ours'):.2f}",
        )
    )
    body = render_table(
        ["bench", "scalar only", "W-C (BDI)", "ours"],
        table_rows,
        title="Figure 12: normalized RF dynamic power (baseline = 1.0)",
    )
    return body + "\npaper averages: scalar-only 0.63, ours 0.46"
