"""The reproduction scorecard: every headline claim, graded in one run.

``python -m repro scorecard`` computes the paper's headline quantities
and grades each against its published value:

* ``MATCH``    — within the tight tolerance,
* ``CLOSE``    — within the loose tolerance (direction and magnitude
  clearly preserved),
* ``DEVIATES`` — outside both (listed with the known explanation in
  EXPERIMENTS.md).

This is the one-command answer to "did the reproduction work?".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import extras, fig1, fig8, fig9, fig11, fig12, table3
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table


@dataclass(frozen=True)
class Claim:
    """One graded headline quantity."""

    name: str
    paper: float
    measured: float
    tight: float  # relative tolerance for MATCH
    loose: float  # relative tolerance for CLOSE

    @property
    def relative_error(self) -> float:
        if self.paper == 0:
            return abs(self.measured)
        return abs(self.measured - self.paper) / abs(self.paper)

    @property
    def grade(self) -> str:
        if self.relative_error <= self.tight:
            return "MATCH"
        if self.relative_error <= self.loose:
            return "CLOSE"
        return "DEVIATES"


@dataclass
class Scorecard:
    claims: list[Claim]

    def count(self, grade: str) -> int:
        return sum(1 for claim in self.claims if claim.grade == grade)


#: The architectures whose timing or power :func:`compute` reads, through
#: the figures it grades.
ARCHITECTURES = tuple(
    dict.fromkeys(fig11.ARCHITECTURES + fig12.ARCHITECTURES + extras.ARCHITECTURES)
)
#: The summaries :func:`compute` reads, through the figures it grades.
SUMMARIES = tuple(
    dict.fromkeys(
        fig1.SUMMARIES + fig8.SUMMARIES + fig9.SUMMARIES + fig12.SUMMARIES
        + extras.SUMMARIES
    )
)


def compute(runner: ExperimentRunner) -> Scorecard:
    """Run every experiment the headline claims draw on."""
    data_fig1 = fig1.compute(runner)
    data_fig8 = fig8.compute(runner)
    data_fig9 = fig9.compute(runner)
    data_fig11 = fig11.compute(runner)
    data_fig12 = fig12.compute(runner)
    data_extras = extras.compute(runner)
    data_table3 = table3.compute()
    fig8_avg = data_fig8.average_fractions()

    claims = [
        Claim("G-Scalar IPC/W vs baseline", 1.24,
              data_fig11.average_gscalar_efficiency, 0.05, 0.15),
        Claim("ALU-scalar IPC/W vs baseline", 1.085,
              data_fig11.average_alu_scalar_efficiency, 0.05, 0.15),
        Claim("G-Scalar IPC (+3 cycles)", 0.983,
              data_fig11.average_gscalar_ipc, 0.01, 0.05),
        Claim("scalar-eligible, G-Scalar", 0.40,
              data_fig9.average_total, 0.10, 0.30),
        Claim("scalar-eligible, ALU-scalar", 0.22,
              data_fig9.average_alu_scalar, 0.15, 0.40),
        Claim("RF power, ours (norm.)", 0.46,
              data_fig12.average("ours"), 0.08, 0.25),
        Claim("RF power, scalar-RF (norm.)", 0.63,
              data_fig12.average("scalar_rf"), 0.08, 0.25),
        Claim("RF access share: scalar", 0.36, fig8_avg["scalar"], 0.10, 0.30),
        Claim("RF access share: 3-byte", 0.17, fig8_avg["3-byte"], 0.15, 0.50),
        Claim("divergent-scalar share of divergent", 0.45,
              data_fig1.average_scalar_share_of_divergent, 0.20, 0.50),
        Claim("decompress-move overhead", 0.02,
              data_extras.decompress_move_overhead, 0.25, 1.0),
        Claim("decompressor power (mW)", 15.86,
              data_table3.decompressor.power_mw, 0.08, 0.20),
        Claim("compressor power (mW)", 16.22,
              data_table3.compressor.power_mw, 0.08, 0.20),
        Claim("compressor area (um2)", 11624.0,
              data_table3.compressor.area_um2, 0.10, 0.25),
        Claim("per-SM codec power (W)", 0.32, data_table3.per_sm_power_w, 0.10, 0.25),
    ]
    return Scorecard(claims=claims)


def render(scorecard: Scorecard) -> str:
    rows = [
        (
            claim.name,
            f"{claim.paper:g}",
            f"{claim.measured:.3f}",
            f"{100 * claim.relative_error:.0f}%",
            claim.grade,
        )
        for claim in scorecard.claims
    ]
    body = render_table(
        ["claim", "paper", "measured", "error", "grade"],
        rows,
        title="Reproduction scorecard",
    )
    summary = (
        f"\n{scorecard.count('MATCH')} MATCH, {scorecard.count('CLOSE')} CLOSE, "
        f"{scorecard.count('DEVIATES')} DEVIATES "
        f"(of {len(scorecard.claims)} headline claims)"
    )
    return body + summary
