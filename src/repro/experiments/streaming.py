"""One pass over a benchmark's chunks: every summary and op table.

:func:`stream_pipeline` is the runner's one path from a trace to what
the figures read.  It walks a stream of chunks once.  A chunk is a run
of whole warps (:func:`repro.simt.trace.iter_chunks`; the whole trace
is the one-chunk stream), and every state the pipeline keeps (the
BVR/EBR sidecar, the prior work's scalar register file, a register's
latest write) belongs to one warp, so each chunk goes through the
whole-trace functions as a trace of its own and nothing is carried
between chunks.  Each chunk is classified once
(:func:`repro.scalar.batch.classify_columnar_batch`); each summary fold
(:class:`repro.experiments.summary.SummaryFold`) counts it; each
architecture interprets it
(:func:`repro.scalar.arch_batch.process_columns`), reduces it to
integer :class:`repro.power.accounting._PowerAggregates` and lowers it
to a :class:`~repro.timing.ops.TimingOpTable` fragment.  Counts merge by
addition (:func:`repro.merge.merge`), which is exact, and
:meth:`~repro.timing.ops.TimingOpTable.concat` joins the fragments at
the end of the stream.  The runner's SM memo simulates each joined
table -- both SM engines schedule whole warps, so the simulation is the
one whole-trace barrier a pass keeps.

Correctness contract: for any chunk size, each summary, joined table
and merged aggregate set equals the one-chunk pass's (gated by
``tests/experiments/test_streaming.py`` and
``tests/experiments/test_summary.py`` across all workloads).

Memory accounting: the pass reports its largest live chunk set -- the
exact bytes of one chunk's trace slice, classified and processed
columns -- as ``peak_bytes_in_flight``, which the runner records into
the ``bytes_in_flight`` gauge once per pass, next to the process's
peak RSS (:mod:`repro.obs.memory`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.merge import merge
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt.trace import TraceChunk
from repro.timing.ops import TimingOpTable, build_timing_ops_columns

if TYPE_CHECKING:
    from repro.experiments.summary import SummaryFold


def _array_bytes(container: Any) -> int:
    """Exact bytes of a dataclass's live numpy arrays."""
    total = 0
    for spec in dataclass_fields(container):
        value = getattr(container, spec.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


@dataclass
class StreamOutcome:
    """Everything a pass produced, per architecture or summary name."""

    num_events: int
    num_chunks: int
    tables: dict[str, TimingOpTable]  # the joined op table
    aggregates: dict[str, _PowerAggregates]  # the merged power aggregates
    summaries: dict[str, Any]  # the merged summary payloads
    peak_bytes_in_flight: int


def stream_pipeline(
    chunks: Iterable[TraceChunk],
    arches: Iterable[ArchitectureConfig],
    num_registers: int,
    config: GpuConfig | None = None,
    static_widths: dict[str, tuple[int, ...] | None] | None = None,
    summaries: dict[str, SummaryFold] | None = None,
) -> StreamOutcome:
    """Classify a chunk stream once; fold summaries and build op tables.

    ``chunks`` come in stream order (:func:`repro.simt.trace.iter_chunks`,
    or a generator that never materializes the whole trace).  Each
    chunk is classified once, counted once per summary fold of
    ``summaries`` (by name), and interpreted, reduced to power
    aggregates and lowered once per architecture.  ``static_widths``
    maps architecture name to the per-register ``enc`` table for
    ``static_compress`` interpretations.
    """
    arches = tuple(arches)
    config = config or GpuConfig()
    static_widths = static_widths or {}
    summaries = summaries or {}
    accountants = {arch.name: PowerAccountant(arch, config=config) for arch in arches}
    aggregates = {arch.name: _PowerAggregates() for arch in arches}
    folded = {name: fold.start for name, fold in summaries.items()}
    fragments: dict[str, list[TimingOpTable]] = {arch.name: [] for arch in arches}
    #: Per chunk: its event count.
    sizes: list[int] = []

    def feed(chunk: TraceChunk) -> int:
        """One chunk through every stage; returns its live array bytes."""
        ccols = classify_columnar_batch(chunk.columnar, num_registers)
        live_bytes = _array_bytes(chunk.columnar) + _array_bytes(ccols)
        for name, fold in summaries.items():
            folded[name] = merge(folded[name], fold.step(chunk, ccols))
        for arch in arches:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths.get(arch.name)
            )
            live_bytes += _array_bytes(pcols)
            aggregates[arch.name] = merge(
                aggregates[arch.name],
                accountants[arch.name].aggregates_from_columns(
                    pcols, warp_base=chunk.warp_start
                ),
            )
            fragments[arch.name].append(
                build_timing_ops_columns(ccols, pcols, arch, config)
            )
        sizes.append(chunk.num_events)
        return live_bytes

    # Each chunk's columns die when ``feed`` returns, the last one's
    # included, so no chunk is live while the tables are joined.
    peak_bytes_in_flight = max(map(feed, chunks), default=0)
    return StreamOutcome(
        num_events=sum(sizes),
        num_chunks=len(sizes),
        # pop: each architecture's fragments die once joined.
        tables={
            arch.name: TimingOpTable.concat(fragments.pop(arch.name))
            for arch in arches
        },
        aggregates=aggregates,
        summaries=folded,
        peak_bytes_in_flight=peak_bytes_in_flight,
    )
