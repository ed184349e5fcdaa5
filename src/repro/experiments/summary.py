"""Per-benchmark summaries: the counts the trace-reading figures read.

Every trace-derived number of the evaluation is a per-benchmark count,
and each summary holds one kind of them, once.  ``counts`` is the
:class:`~repro.scalar.tracker.TrackerStatistics` table that Figures 1
and 9, the suite table and the §5.3 extras read; ``fig8``, ``fig10``
and ``fig12`` hold Figure 8's access buckets, Figure 10's chunk-scalar
counts at warp sizes 32 and 64 and Figure 12's Warped-Compression RF
activity; ``extras`` the §5.3 compression, move-elision and address-width
terms; ``staticdyn`` the static vs. dynamic scores and width-claim rows.
Each experiment names the summaries its ``compute`` reads in a
``SUMMARIES`` module constant.

Each builder prepares one benchmark's :class:`SummaryFold`, whose step
counts one chunk of whole warps from its trace slice and classified
columns; the benchmark's pass
(:func:`repro.experiments.streaming.stream_pipeline`) sums the steps
with :func:`repro.merge.merge`, which equals the count over the whole
trace.  A builder reads the kernel, the width analysis or the warp-64
trace, never another summary, and its payload is small dataclasses,
never an array of trace size.  The runner memoizes each summary and,
with a cache directory, stores it as one ``summary`` entry, so a warm
cache renders every figure without executing anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from repro.analysis.halfwarp import chunk_scalar_stats
from repro.analysis.similarity import access_distribution
from repro.compression.stats import compare_trace
from repro.compression.wide import address_width_study
from repro.config import ArchitectureConfig
from repro.experiments.extras import ExtrasCounts
from repro.experiments.fig10 import GRANULARITY
from repro.experiments.staticdyn import (
    annotate_sites,
    score_benchmark,
    score_widths_benchmark,
)
from repro.power.rf_techniques import wc_bdi_counts
from repro.scalar.arch_batch import process_columns
from repro.scalar.columns import ClassifiedColumns
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.tracker import trace_statistics
from repro.simt.trace import TraceChunk

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner


class SummaryFold(NamedTuple):
    """One benchmark's summary as a fold over its chunks: the pass
    merges ``step(chunk, columns)`` of every chunk into ``start``."""

    step: Callable[[TraceChunk, ClassifiedColumns], Any]
    start: Any = None


def _counts(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    return SummaryFold(lambda chunk, columns: trace_statistics(columns))


def _fig8(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    return SummaryFold(lambda chunk, columns: access_distribution(columns))


def _fig10(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    """Chunk-scalar stats at warp sizes 32 and 64.  The warp-64 trace
    is executed once here, counted whole and dropped."""
    warp64 = chunk_scalar_stats(runner.execute(abbr, 64), GRANULARITY)
    return SummaryFold(
        lambda chunk, columns: (chunk_scalar_stats(chunk.columnar, GRANULARITY), None),
        start=(None, warp64),
    )


def _fig12(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    """Warped-Compression's RF activity, replayed over the raw trace."""
    return SummaryFold(lambda chunk, columns: wc_bdi_counts(chunk.columnar))


def _extras(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    gscalar = ArchitectureConfig.gscalar()
    elision = MoveElisionAnalysis(runner.run(abbr).built.kernel)
    register_enc = runner.width_analysis(abbr).register_enc

    def step(chunk: TraceChunk, columns: ClassifiedColumns) -> ExtrasCounts:
        with_compiler = process_columns(columns, gscalar, move_elision=elision)
        return ExtrasCounts(
            comparison=compare_trace(chunk.columnar),
            elided_move_instructions=int(
                with_compiler.extra_instructions.sum(dtype=np.int64)
            ),
            width_study=address_width_study(chunk.columnar),
            register_enc=register_enc,
        )

    return SummaryFold(step)


def _staticdyn(runner: ExperimentRunner, abbr: str) -> SummaryFold:
    """The static-vs-dynamic row and the width-claim row (``--widths``)."""
    kernel = runner.run(abbr).built.kernel
    widths = runner.width_analysis(abbr)

    def step(chunk: TraceChunk, columns: ClassifiedColumns) -> tuple:
        sites = annotate_sites(kernel, columns)
        return (
            score_benchmark(abbr, kernel, columns, sites, widths.uniformity),
            score_widths_benchmark(abbr, kernel, columns, sites, widths),
        )

    return SummaryFold(step)


#: Summary builders by summary name; a pass folds them in this order.
BUILDERS: dict[str, Callable[[ExperimentRunner, str], SummaryFold]] = {
    "counts": _counts,
    "fig8": _fig8,
    "fig10": _fig10,
    "fig12": _fig12,
    "extras": _extras,
    "staticdyn": _staticdyn,
}
