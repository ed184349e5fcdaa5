"""Chunk-streaming pipeline.

The whole-trace pipeline materializes every stage for the full event
stream: trace -> classified columns -> per-architecture processed
columns -> timing-op table and power aggregates.  For a 10^6+-event
trace the intermediate columns dominate memory.
:func:`stream_pipeline` runs the same stages chunk by chunk instead.
A chunk is a run of whole warps (:func:`repro.simt.trace.iter_chunks`),
and every state the pipeline keeps (the BVR/EBR sidecar, the prior
work's scalar register file) belongs to one warp, so each chunk goes
through the whole-trace functions as a trace of its own and nothing
is carried between chunks:

* classification and interpretation —
  :func:`repro.scalar.batch.classify_columnar_batch` and
  :func:`repro.scalar.arch_batch.process_columns`, per architecture;
* timing — :func:`repro.timing.ops.build_timing_ops_columns` lowers
  each chunk to its own :class:`~repro.timing.ops.TimingOpTable`, and
  :meth:`~repro.timing.ops.TimingOpTable.concat` joins them at the end
  of the stream;
* power — each chunk reduces to an integer
  :class:`repro.power.accounting._PowerAggregates`, merged additively,
  which is exact.

The stream ends at the joined table and the merged aggregates of each
architecture: the same (table, aggregates) pair the whole-trace path
builds, so :class:`~repro.experiments.runner.ExperimentRunner` runs one
result tail for both.  Its SM memo simulates the table — both SM
engines schedule whole warps, so the simulation is the one whole-trace
barrier a streamed pass keeps — and one power evaluation turns the
aggregates into a report.

Correctness contract: for any chunk size, each joined table and merged
aggregate set equals the whole-trace lowering and reduction (gated by
``tests/experiments/test_streaming.py`` across all workloads and
architectures).

Memory accounting: the pass reports its largest live chunk set — the
exact bytes of one chunk's trace slice, classified and processed
columns — as ``peak_bytes_in_flight``.  The runner records it into the
``bytes_in_flight`` gauge, and the process peak RSS into
``peak_rss_bytes`` (:mod:`repro.obs.memory`), once per pass: the RSS
gauge reads ``ru_maxrss``, a high-water mark, so sampling it per chunk
would report nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Iterable

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt.trace import TraceChunk
from repro.timing.ops import TimingOpTable, build_timing_ops_columns


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
    """Everything a streamed pass produced, per architecture name."""

    num_events: int
    num_chunks: int
    tables: dict[str, TimingOpTable]  # the joined op table
    aggregates: dict[str, _PowerAggregates]  # the merged power aggregates
    peak_bytes_in_flight: int


def stream_pipeline(
    chunks: Iterable[TraceChunk],
    arches: Iterable[ArchitectureConfig],
    num_registers: int,
    config: GpuConfig | None = None,
    static_widths: dict[str, tuple[int, ...] | None] | None = None,
) -> StreamOutcome:
    """Classify, process, aggregate and lower a chunk stream.

    ``chunks`` come in stream order (:func:`repro.simt.trace.iter_chunks`,
    or a generator that never materializes the whole trace).  Each
    chunk is classified once and interpreted, reduced to power
    aggregates and lowered once per architecture.  ``static_widths``
    maps architecture name to the per-register ``enc`` table for
    ``static_compress`` interpretations (the value the whole-trace path
    feeds :func:`repro.scalar.arch_batch.process_columns`).
    """
    arches = tuple(arches)
    config = config or GpuConfig()
    static_widths = static_widths or {}
    accountants = {arch.name: PowerAccountant(arch, config=config) for arch in arches}
    aggregates = {arch.name: _PowerAggregates() for arch in arches}
    fragments: dict[str, list[TimingOpTable]] = {arch.name: [] for arch in arches}
    #: Per chunk: its event count.
    sizes: list[int] = []

    def feed(chunk: TraceChunk) -> int:
        """One chunk through every stage; returns its live array bytes."""
        ccols = classify_columnar_batch(chunk.columnar, num_registers)
        live_bytes = _array_bytes(chunk.columnar) + _array_bytes(ccols)
        for arch in arches:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths.get(arch.name)
            )
            live_bytes += _array_bytes(pcols)
            aggregates[arch.name].merge(
                accountants[arch.name].aggregates_from_columns(
                    pcols, warp_base=chunk.warp_start
                )
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
        peak_bytes_in_flight=peak_bytes_in_flight,
    )
