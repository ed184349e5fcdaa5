"""Stall-cause attribution across the benchmark suite (not in the paper).

For every benchmark, attributes each idle scheduler-cycle of the SM
timing model to one of the six stall causes
(:data:`repro.timing.sm.STALL_CAUSES`) on the baseline GPU and on full
G-Scalar.  The columns are percentages of the SM's *issue slots*
(``cycles × schedulers``), so each row's issue column plus its six
stall columns sums to 100% — the accounting invariant both timing
engines maintain and the differential suite pins bit-identically.

This is the batch counterpart of ``repro timeline``, which drills into
one benchmark with the per-warp flight recorder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ArchitectureConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table
from repro.timing.sm import STALL_CAUSES


@dataclass
class StallRow:
    abbr: str
    arch: str
    cycles: int
    schedulers: int
    issued: int
    stalls: dict[str, int]  # cause name -> idle scheduler-cycles

    @property
    def slots(self) -> int:
        """Total issue slots (``cycles × schedulers``)."""
        return self.cycles * self.schedulers

    def issue_fraction(self) -> float:
        return self.issued / self.slots if self.slots else 0.0

    def stall_fraction(self, cause: str) -> float:
        return self.stalls[cause] / self.slots if self.slots else 0.0


@dataclass
class StallData:
    rows: list[StallRow]
    arch_names: tuple[str, ...]

    def average_stall_fraction(self, arch: str, cause: str) -> float:
        rows = [r for r in self.rows if r.arch == arch]
        if not rows:
            return 0.0
        return sum(r.stall_fraction(cause) for r in rows) / len(rows)


#: The architectures whose timing results :func:`compute` reads.
ARCHITECTURES = (ArchitectureConfig.baseline(), ArchitectureConfig.gscalar())


def compute(runner: ExperimentRunner) -> StallData:
    """Attribute every idle scheduler-cycle, baseline vs G-Scalar."""
    rows = []
    for abbr in runner.benchmark_names():
        for arch in ARCHITECTURES:
            timing = runner.timing(abbr, arch)
            rows.append(
                StallRow(
                    abbr=abbr,
                    arch=arch.name,
                    cycles=timing.cycles,
                    schedulers=len(timing.stalls_per_scheduler)
                    or runner.config.schedulers_per_sm,
                    issued=sum(timing.issued_per_scheduler),
                    stalls=timing.stalls.as_dict(),
                )
            )
    return StallData(rows=rows, arch_names=tuple(a.name for a in ARCHITECTURES))


_HEADERS = (
    "bench",
    "arch",
    "cycles",
    "issue%",
    "scoreboard%",
    "branch%",
    "barrier%",
    "drain%",
    "coll.full%",
    "bank.conf%",
)


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}"


def render(data: StallData) -> str:
    """The attribution as a text table (percent of issue slots)."""
    table_rows = []
    for row in data.rows:
        table_rows.append(
            (
                row.abbr,
                row.arch,
                str(row.cycles),
                _pct(row.issue_fraction()),
            )
            + tuple(_pct(row.stall_fraction(cause)) for cause in STALL_CAUSES)
        )
    for arch in data.arch_names:
        arch_rows = [r for r in data.rows if r.arch == arch]
        if not arch_rows:
            continue
        mean_issue = sum(r.issue_fraction() for r in arch_rows) / len(arch_rows)
        table_rows.append(
            ("AVG", arch, "", _pct(mean_issue))
            + tuple(
                _pct(data.average_stall_fraction(arch, cause))
                for cause in STALL_CAUSES
            )
        )
    body = render_table(
        list(_HEADERS),
        table_rows,
        title="Stall attribution: % of issue slots per cause "
        "(issue + causes = 100)",
    )
    return body + (
        "\ncauses: scoreboard=RAW/WAW wait, branch=post-branch shadow, "
        "barrier=bar.sync wait,\n        drain=instruction stream exhausted, "
        "coll.full=operand collectors full,\n        bank.conf=RF bank-conflict "
        "serialization backpressure"
    )
