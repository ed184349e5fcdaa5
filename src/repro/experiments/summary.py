"""Per-benchmark summaries: the counts each trace-reading figure reads.

Every trace-derived number of the evaluation is a per-benchmark count:
divergent and divergent-scalar instructions (Figure 1), operand-access
buckets (Figure 8), eligibility classes (Figure 9), 16-lane
chunk-scalar instructions at warp sizes 32 and 64 (Figure 10), the
Warped-Compression RF energy (Figure 12), the §5.3 compression and
address-width ratios (extras), the suite statistics and the static vs.
dynamic scores (staticdyn, with its width-claim rows).  Each builder
below runs one experiment's analysis functions over one benchmark's
trace or classified columns and returns the small dataclasses those
functions return, never an array of trace size.

:meth:`repro.experiments.runner.ExperimentRunner.summary` builds a
summary on demand, memoizes it and, with a cache directory, stores it
as one ``summary`` entry.  The figure modules read only summaries and
``result`` entries, so a warm cache renders every figure without
executing, classifying or simulating anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.analysis.divergence import divergence_stats
from repro.analysis.halfwarp import chunk_scalar_stats
from repro.analysis.similarity import access_distribution
from repro.compression.stats import compare_trace
from repro.compression.wide import address_width_study
from repro.config import ArchitectureConfig
from repro.experiments.extras import ExtrasCounts
from repro.experiments.fig10 import GRANULARITY
from repro.experiments.staticdyn import score_benchmark, score_widths_benchmark
from repro.experiments.suite import SuiteRow
from repro.power.rf_techniques import rf_energy_for_technique
from repro.scalar.arch_batch import process_columns
from repro.scalar.columns import MEM_CODE, SFU_CODE
from repro.scalar.compiler import MoveElisionAnalysis, StaticScalarization
from repro.scalar.eligibility import ScalarClass
from repro.scalar.tracker import trace_statistics

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentRunner


def _fig1(runner: ExperimentRunner, abbr: str):
    return divergence_stats(runner.classified_columns(abbr))


def _fig8(runner: ExperimentRunner, abbr: str):
    return access_distribution(runner.classified_columns(abbr))


def _fig9(runner: ExperimentRunner, abbr: str):
    return trace_statistics(runner.classified_columns(abbr))


def _fig10(runner: ExperimentRunner, abbr: str):
    """Chunk-scalar stats at warp sizes 32 and 64.  The warp-64 trace
    is executed here and dropped once counted."""
    return (
        chunk_scalar_stats(runner.run(abbr).columnar, GRANULARITY),
        chunk_scalar_stats(runner.execute(abbr, 64), GRANULARITY),
    )


def _fig12(runner: ExperimentRunner, abbr: str):
    """Warped-Compression's RF energy, replayed over the raw trace."""
    return rf_energy_for_technique(runner.run(abbr).columnar, "wc_bdi", runner.params)


def _extras(runner: ExperimentRunner, abbr: str) -> ExtrasCounts:
    run = runner.run(abbr)
    columns = runner.classified_columns(abbr)
    with_compiler = process_columns(
        columns,
        ArchitectureConfig.gscalar(),
        move_elision=MoveElisionAnalysis(run.built.kernel),
    )
    return ExtrasCounts(
        comparison=compare_trace(run.columnar),
        stats=trace_statistics(columns),
        elided_move_instructions=int(
            with_compiler.extra_instructions.sum(dtype=np.int64)
        ),
        static_scalar_fraction=StaticScalarization(
            run.built.kernel
        ).dynamic_static_scalar_fraction(run.columnar),
        width_study=address_width_study(run.columnar),
        register_enc=runner.static_widths(abbr),
    )


def _suite(runner: ExperimentRunner, abbr: str) -> SuiteRow:
    columns = runner.classified_columns(abbr)
    stats = trace_statistics(columns)
    total = max(1, stats.total_instructions)
    return SuiteRow(
        abbr=abbr,
        instructions=stats.total_instructions,
        divergent=stats.divergent_instructions / total,
        alu_scalar=stats.fraction(ScalarClass.ALU_SCALAR),
        sfu_scalar=stats.fraction(ScalarClass.SFU_SCALAR),
        mem_scalar=stats.fraction(ScalarClass.MEM_SCALAR),
        half_scalar=stats.fraction(ScalarClass.HALF_SCALAR),
        divergent_scalar=stats.fraction(ScalarClass.DIVERGENT_SCALAR),
        eligible=stats.eligible_fraction,
        sfu_mix=np.count_nonzero(columns.category_codes == SFU_CODE) / total,
        mem_mix=np.count_nonzero(columns.category_codes == MEM_CODE) / total,
    )


def _staticdyn(runner: ExperimentRunner, abbr: str):
    """The static-vs-dynamic row and the width-claim row (``--widths``)."""
    kernel = runner.run(abbr).built.kernel
    columns = runner.classified_columns(abbr)
    return (
        score_benchmark(abbr, kernel, columns),
        score_widths_benchmark(abbr, kernel, columns, runner.width_analysis(abbr)),
    )


#: Summary builders by experiment name, in CLI order.
BUILDERS: dict[str, Callable[[ExperimentRunner, str], Any]] = {
    "fig1": _fig1,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig12": _fig12,
    "extras": _extras,
    "suite": _suite,
    "staticdyn": _staticdyn,
}
