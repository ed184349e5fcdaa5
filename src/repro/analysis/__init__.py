"""Trace analyses (Figures 8 and 10) and the static kernel analyzer.

Dynamic-trace analyses live at this level; Figures 1 and 9 read the
count table of :func:`repro.scalar.tracker.trace_statistics`.  The
compile-time lint/diagnostic subsystem is the
:mod:`repro.analysis.static_` subpackage.
"""

from repro.analysis.halfwarp import ChunkScalarStats, chunk_scalar_stats
from repro.analysis.similarity import (
    CATEGORIES,
    AccessDistribution,
    access_distribution,
)
from repro.analysis.static_ import (
    Diagnostic,
    LintReport,
    Severity,
    StaticScalarClass,
    analyze_uniformity,
    lint_kernel,
)

__all__ = [
    "CATEGORIES",
    "AccessDistribution",
    "ChunkScalarStats",
    "Diagnostic",
    "LintReport",
    "Severity",
    "StaticScalarClass",
    "access_distribution",
    "analyze_uniformity",
    "chunk_scalar_stats",
    "lint_kernel",
]
