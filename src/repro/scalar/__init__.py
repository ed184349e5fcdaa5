"""Scalar-eligibility classification, sidecar tracking, architecture views."""

from repro.scalar.architectures import (
    ArchitectureView,
    ProcessedEvent,
    ProcessedStatistics,
    process_classified,
    processed_statistics,
)
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import (
    ClassifierCarry,
    classify_columnar_batch,
    classify_columnar_chunk,
)
from repro.scalar.columns import (
    ClassifiedColumns,
    ProcessedColumns,
    processed_columns_diff,
    processed_columns_equal,
)
from repro.scalar.compiler import (
    MoveElisionAnalysis,
    StaticScalarization,
    ValueKind,
)
from repro.scalar.eligibility import (
    ScalarClass,
    SourceRead,
    classify_instruction,
    classify_source_read,
)
from repro.scalar.tracker import (
    HALF_GRANULARITY,
    ClassifiedEvent,
    RegisterStateTracker,
    TrackerStatistics,
    classify_trace,
    classify_warp,
    trace_statistics,
)

__all__ = [
    "HALF_GRANULARITY",
    "ArchitectureView",
    "ClassifiedColumns",
    "ClassifiedEvent",
    "ClassifierCarry",
    "MoveElisionAnalysis",
    "ProcessedColumns",
    "ProcessedEvent",
    "ProcessedStatistics",
    "RegisterStateTracker",
    "ScalarClass",
    "StaticScalarization",
    "SourceRead",
    "TrackerStatistics",
    "ValueKind",
    "classify_columnar_batch",
    "classify_columnar_chunk",
    "classify_instruction",
    "classify_source_read",
    "classify_trace",
    "classify_warp",
    "process_classified",
    "process_columns",
    "processed_columns_diff",
    "processed_columns_equal",
    "processed_statistics",
    "trace_statistics",
]
