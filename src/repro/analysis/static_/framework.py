"""The lint pass manager: ordered passes over a shared analysis context.

A :class:`LintPass` inspects one kernel and returns diagnostics; the
:class:`PassManager` runs an ordered list of passes, sharing one
:class:`AnalysisContext` so expensive analyses (post-dominators,
liveness, branch regions, uniformity) are computed at most once per
kernel however many passes consume them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import TYPE_CHECKING

from repro.isa.kernel import Kernel, immediate_postdominators
from repro.isa.liveness import (
    BlockLiveness,
    BranchRegion,
    block_liveness,
    branch_region_members,
)

from repro.analysis.static_.diagnostics import Diagnostic, LintReport

if TYPE_CHECKING:
    from repro.analysis.static_.uniformity import UniformityResult


class AnalysisContext:
    """One kernel plus lazily-computed, shared CFG analyses."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    @cached_property
    def ipdom(self) -> dict[int, int]:
        return immediate_postdominators(self.kernel)

    @cached_property
    def liveness(self) -> BlockLiveness:
        return block_liveness(self.kernel)

    @cached_property
    def regions(self) -> list[tuple[BranchRegion, frozenset[int]]]:
        return branch_region_members(self.kernel)

    @cached_property
    def predecessors(self) -> dict[int, list[int]]:
        return self.kernel.predecessors()

    @cached_property
    def uniformity(self) -> UniformityResult:
        from repro.analysis.static_.uniformity import analyze_uniformity

        return analyze_uniformity(self.kernel)


class LintPass(ABC):
    """One analysis pass; stateless between kernels."""

    #: Short machine name, stable across releases.
    name: str = "unnamed"

    @abstractmethod
    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        """Analyze the context's kernel and return findings."""


class PassManager:
    """Runs an ordered pass pipeline over kernels."""

    def __init__(self, passes: list[LintPass]):
        self.passes = list(passes)

    def run(self, kernel: Kernel) -> LintReport:
        """Lint one kernel with every registered pass, in order."""
        ctx = AnalysisContext(kernel)
        report = LintReport(kernel=kernel.name)
        for lint_pass in self.passes:
            report.extend(lint_pass.run(ctx))
        return report


def default_passes(max_registers: int = 64) -> list[LintPass]:
    """The standard pipeline, in dependency-friendly order."""
    from repro.analysis.static_.cfg import CfgStructurePass
    from repro.analysis.static_.deadwrite import DeadWritePass
    from repro.analysis.static_.pressure import RegisterPressurePass
    from repro.analysis.static_.uninit import UninitializedReadPass
    from repro.analysis.static_.uniformity import StaticScalarizationPass
    from repro.analysis.static_.widths import WidthAnalysisPass

    return [
        CfgStructurePass(),
        UninitializedReadPass(),
        DeadWritePass(),
        RegisterPressurePass(max_registers=max_registers),
        StaticScalarizationPass(),
        WidthAnalysisPass(),
    ]


def default_manager(max_registers: int = 64) -> PassManager:
    """A pass manager loaded with :func:`default_passes`."""
    return PassManager(default_passes(max_registers=max_registers))


def lint_kernel(kernel: Kernel, max_registers: int = 64) -> LintReport:
    """Lint one kernel with the default pipeline."""
    return default_manager(max_registers=max_registers).run(kernel)
