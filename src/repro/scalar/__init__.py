"""Scalar-eligibility classification and per-architecture interpretation."""

from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import ClassifiedColumns, ProcessedColumns
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.eligibility import ScalarClass
from repro.scalar.tracker import (
    HALF_GRANULARITY,
    TrackerStatistics,
    trace_statistics,
)

__all__ = [
    "HALF_GRANULARITY",
    "ClassifiedColumns",
    "MoveElisionAnalysis",
    "ProcessedColumns",
    "ScalarClass",
    "TrackerStatistics",
    "classify_columnar_batch",
    "process_columns",
    "trace_statistics",
]
