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
to a :class:`~repro.timing.ops.TimingOpTable` fragment.  A fragment's
column that equals the same column of an earlier architecture's
fragment of the chunk is that array, not a copy, and a fragment equal
to an earlier one is that fragment (``gscalar_no_divergent`` and
``gscalar``, ``static_compress`` and the baseline, on every workload
at small scale).  Counts merge by addition
(:func:`repro.merge.merge`), which is exact.  After the stream the
runner joins one architecture's fragments at a time
(:meth:`StreamOutcome.join`), digests and simulates that table, and
drops it before it joins the next -- both SM engines schedule whole
warps, so the simulation is the one whole-trace barrier a pass keeps,
and a pass holds at most one joined table.

Correctness contract: for any chunk size, each summary, joined table
and merged aggregate set equals the one-chunk pass's (gated by
``tests/experiments/test_streaming.py`` and
``tests/experiments/test_summary.py`` across all workloads).

Memory accounting: the pass reports its largest live chunk set -- the
bytes of the distinct arrays of one chunk's trace slice, classified
and processed columns, each array counted once however many of them
share it -- as ``peak_bytes_in_flight``, which the runner records into
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


def _array_bytes(*containers: Any) -> int:
    """Bytes of the distinct numpy arrays the dataclasses ``containers``
    hold: an array that several fields or containers share counts once."""
    arrays = {}
    for container in containers:
        for spec in dataclass_fields(container):
            value = getattr(container, spec.name)
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value.nbytes
    return sum(arrays.values())


def _shared(built: TimingOpTable, earlier: list[TimingOpTable]) -> TimingOpTable:
    """``built``, with each column that equals the same column of an
    ``earlier`` table of its chunk replaced by that array, or that
    earlier table itself when every column matches it.

    ``earlier``'s columns are already shared this way, so an equal
    column is one array however many architectures lower it:
    ``gscalar``'s chunk table is ``gscalar_no_divergent``'s, and MV's
    coalesced segments are one array for all four paper architectures.
    """
    columns = {}
    for spec in dataclass_fields(TimingOpTable):
        column = getattr(built, spec.name)
        columns[spec.name] = next(
            (
                getattr(table, spec.name)
                for table in earlier
                if np.array_equal(getattr(table, spec.name), column)
            ),
            column,
        )
    for table in earlier:
        if all(getattr(table, name) is column for name, column in columns.items()):
            return table
    return TimingOpTable(**columns)


@dataclass
class StreamOutcome:
    """Everything a pass produced, per architecture or summary name."""

    num_events: int
    num_chunks: int
    #: Per architecture, one op table per chunk in stream order; equal
    #: chunk tables, and equal columns of one chunk's tables, are one
    #: object.
    fragments: dict[str, list[TimingOpTable]]
    aggregates: dict[str, _PowerAggregates]  # the merged power aggregates
    summaries: dict[str, Any]  # the merged summary payloads
    peak_bytes_in_flight: int

    def join(self, name: str) -> TimingOpTable:
        """Architecture ``name``'s joined op table
        (:meth:`~repro.timing.ops.TimingOpTable.concat`).  Its fragments
        leave the outcome, so a caller that joins, uses and drops one
        table at a time never holds two joined tables."""
        return TimingOpTable.concat(self.fragments.pop(name))


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
    ``static_compress`` interpretations.  The caller joins each
    architecture's table (:meth:`StreamOutcome.join`).
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
        shared_bytes = _array_bytes(chunk.columnar, ccols)
        live_bytes = shared_bytes
        for name, fold in summaries.items():
            folded[name] = merge(folded[name], fold.step(chunk, ccols))
        lowered: list[TimingOpTable] = []
        for arch in arches:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths.get(arch.name)
            )
            # Processed columns reuse some classified arrays.
            live_bytes += _array_bytes(chunk.columnar, ccols, pcols) - shared_bytes
            aggregates[arch.name] = merge(
                aggregates[arch.name],
                accountants[arch.name].aggregates_from_columns(
                    pcols, warp_base=chunk.warp_start
                ),
            )
            table = _shared(
                build_timing_ops_columns(ccols, pcols, arch, config), lowered
            )
            if table not in lowered:
                lowered.append(table)
            fragments[arch.name].append(table)
        sizes.append(chunk.num_events)
        return live_bytes

    # Each chunk's columns die when ``feed`` returns, the last one's
    # included, so no chunk is live while the tables are joined.
    peak_bytes_in_flight = max(map(feed, chunks), default=0)
    return StreamOutcome(
        num_events=sum(sizes),
        num_chunks=len(sizes),
        fragments=fragments,
        aggregates=aggregates,
        summaries=folded,
        peak_bytes_in_flight=peak_bytes_in_flight,
    )
