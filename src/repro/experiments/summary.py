"""Per-benchmark summaries: the counts the trace-reading figures read.

Every trace-derived number of the evaluation is a per-benchmark count,
and each summary holds one kind of them, once.  ``counts`` is the
:class:`~repro.scalar.tracker.TrackerStatistics` table that Figures 1
and 9, the suite table and the §5.3 extras read; ``fig8``, ``fig10``
and ``fig12`` hold Figure 8's access buckets, Figure 10's chunk-scalar
counts at warp sizes 32 and 64 and Figure 12's Warped-Compression RF
activity; ``extras`` the §5.3 compression, move-elision and address-width
terms; ``staticdyn`` the static vs. dynamic scores and width-claim rows.
Each builder reads one benchmark's trace, classified columns or width
analysis, never another summary, and returns small dataclasses, never
an array of trace size.  Each experiment names the summaries its ``compute`` reads in a
``SUMMARIES`` module constant.

:meth:`repro.experiments.runner.ExperimentRunner.summary` builds a
summary on demand, memoizes it and, with a cache directory, stores it
as one ``summary`` entry.  The figure modules read only summaries and
``result`` entries, so a warm cache renders every figure without
executing, classifying or simulating anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

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
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.tracker import trace_statistics

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner


def _counts(runner: ExperimentRunner, abbr: str):
    return trace_statistics(runner.classified_columns(abbr))


def _fig8(runner: ExperimentRunner, abbr: str):
    return access_distribution(runner.classified_columns(abbr))


def _fig10(runner: ExperimentRunner, abbr: str):
    """Chunk-scalar stats at warp sizes 32 and 64.  The warp-64 trace
    is executed here and dropped once counted."""
    return (
        chunk_scalar_stats(runner.run(abbr).columnar, GRANULARITY),
        chunk_scalar_stats(runner.execute(abbr, 64), GRANULARITY),
    )


def _fig12(runner: ExperimentRunner, abbr: str):
    """Warped-Compression's RF activity, replayed over the raw trace."""
    return wc_bdi_counts(runner.run(abbr).columnar)


def _extras(runner: ExperimentRunner, abbr: str) -> ExtrasCounts:
    run = runner.run(abbr)
    with_compiler = process_columns(
        runner.classified_columns(abbr),
        ArchitectureConfig.gscalar(),
        move_elision=MoveElisionAnalysis(run.built.kernel),
    )
    return ExtrasCounts(
        comparison=compare_trace(run.columnar),
        elided_move_instructions=int(
            with_compiler.extra_instructions.sum(dtype=np.int64)
        ),
        width_study=address_width_study(run.columnar),
        register_enc=runner.width_analysis(abbr).register_enc,
    )


def _staticdyn(runner: ExperimentRunner, abbr: str):
    """The static-vs-dynamic row and the width-claim row (``--widths``)."""
    kernel = runner.run(abbr).built.kernel
    columns = runner.classified_columns(abbr)
    widths = runner.width_analysis(abbr)
    sites = annotate_sites(kernel, columns)
    return (
        score_benchmark(abbr, kernel, columns, sites, widths.uniformity),
        score_widths_benchmark(abbr, kernel, columns, sites, widths),
    )


#: Summary builders by summary name; a prefetch builds them in this
#: order.
BUILDERS: dict[str, Callable[[ExperimentRunner, str], Any]] = {
    "counts": _counts,
    "fig8": _fig8,
    "fig10": _fig10,
    "fig12": _fig12,
    "extras": _extras,
    "staticdyn": _staticdyn,
}
