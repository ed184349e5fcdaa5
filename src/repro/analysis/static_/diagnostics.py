"""Severity-leveled, machine-readable lint diagnostics.

Every finding a lint pass emits is a :class:`Diagnostic` carrying a
stable rule code (``GS-E001``, ``GS-W101``, ...), a severity, and a
source location (kernel name, block id, instruction index).  Rule codes
never change meaning once shipped; tooling may filter or gate on them.
The full vocabulary lives in :data:`RULES` — the table rendered in the
README — and :class:`LintReport` aggregates one kernel's findings with
severity filtering and JSON export.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    @classmethod
    def parse(cls, text: str) -> "Severity":
        for severity in cls:
            if severity.value == text.strip().lower():
                return severity
        known = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown severity {text!r}; known: {known}")


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}

#: The stable rule vocabulary: code -> (severity, one-line title).
#: Codes follow ``GS-<severity letter><3 digits>``; E0xx are dataflow
#: errors, W1xx dataflow/structural warnings, I2xx informational reports.
RULES: dict[str, tuple[Severity, str]] = {
    "GS-E001": (Severity.ERROR, "register read but never written on any path"),
    "GS-E002": (Severity.ERROR, "register read before definition on some path"),
    "GS-E003": (Severity.ERROR, "register count exceeds the per-thread budget"),
    "GS-W101": (Severity.WARNING, "dead write: value never live afterwards"),
    "GS-W102": (Severity.WARNING, "branch arms only reconverge at kernel exit"),
    "GS-W103": (Severity.WARNING, "block unreachable from the entry block"),
    "GS-I201": (Severity.INFO, "static scalarization summary"),
    "GS-I202": (Severity.INFO, "register pressure / encoding width report"),
    "GS-I203": (Severity.INFO, "degenerate branch: both arms identical"),
    "GS-W104": (Severity.WARNING, "register provably narrow but allocated full-width"),
    "GS-I204": (Severity.INFO, "static compressibility report"),
}

_SEVERITY_LETTER = {Severity.ERROR: "E", Severity.WARNING: "W", Severity.INFO: "I"}


def _validate_rules(rules: dict[str, tuple[Severity, str]]) -> None:
    """Sanity-check the rule vocabulary at import time.

    Codes must be well-formed ``GS-<letter><3 digits>``, the severity
    letter must agree with the registered :class:`Severity`, and titles
    must be non-empty.  (Uniqueness is structural — ``rules`` is a dict —
    so we instead reject accidental *reuse* of the numeric part across
    severities, which would make codes ambiguous in prose.)
    """
    seen_numbers: dict[str, str] = {}
    for code, (severity, title) in rules.items():
        if len(code) != 7 or not code.startswith("GS-") or not code[4:].isdigit():
            raise ValueError(f"malformed rule code {code!r}")
        letter = code[3]
        if letter != _SEVERITY_LETTER[severity]:
            raise ValueError(
                f"rule {code}: severity letter {letter!r} does not match "
                f"registered severity {severity.value!r}"
            )
        if not title:
            raise ValueError(f"rule {code}: empty title")
        number = code[4:]
        if number in seen_numbers:
            raise ValueError(
                f"rule {code}: number {number} already used by {seen_numbers[number]}"
            )
        seen_numbers[number] = code


_validate_rules(RULES)


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pinned to a rule code and a source location.

    ``block_id`` is ``None`` for kernel-wide findings; ``inst_index`` is
    ``None`` for findings on a block's terminator or the whole block.
    """

    rule: str
    kernel: str
    message: str
    block_id: int | None = None
    inst_index: int | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unregistered rule code {self.rule!r}")

    @property
    def severity(self) -> Severity:
        return RULES[self.rule][0]

    def location(self) -> str:
        if self.block_id is None:
            return self.kernel
        if self.inst_index is None:
            return f"{self.kernel}:b{self.block_id}"
        return f"{self.kernel}:b{self.block_id}:i{self.inst_index}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "kernel": self.kernel,
            "block": self.block_id,
            "instruction": self.inst_index,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.severity.value:7s} {self.rule} {self.location()}: {self.message}"


@dataclass
class LintReport:
    """All diagnostics produced for one kernel, in pass order."""

    kernel: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, found: list[Diagnostic]) -> None:
        self.diagnostics.extend(found)

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        """Diagnostics at or above a severity."""
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.at_least(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def to_dict(self) -> dict:
        counts = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return {
            "kernel": self.kernel,
            "counts": counts,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [d.render() for d in self.diagnostics if d.severity >= min_severity]
        if not lines:
            return f"{self.kernel}: clean"
        return "\n".join(lines)
