"""Chunk-streaming pipeline orchestrator.

The whole-trace pipeline materializes every stage for the full event
stream: trace -> classified columns -> per-architecture processed
columns -> timing-op table -> power report.  For a 10^6+-event trace the
intermediate columns dominate memory.  This module threads the same
stages chunk by chunk instead, with explicit carry state between
chunks at every layer:

* :class:`repro.scalar.batch.ClassifierCarry` — the BVR/EBR sidecar
  state (last write per register) and the last scalar class (telemetry
  transitions) of the warp a chunk boundary splits;
* :class:`repro.scalar.arch_batch.ArchCarry` — the prior-work
  architecture's scalar-register-file LRU residency, per architecture;
* timing — :func:`repro.timing.ops.build_timing_ops_columns` is a pure
  per-event lowering, so each chunk lowers to its own
  :class:`~repro.timing.ops.TimingOpTable` and
  :meth:`~repro.timing.ops.TimingOpTable.concat` joins them, merging a
  warp a chunk boundary cut.  Both SM engines schedule whole warps, so
  the single simulation pass at :meth:`StreamingPipeline.finish` is the
  one whole-trace barrier the stream keeps;
* power — each chunk reduces to an integer
  :class:`repro.power.accounting._PowerAggregates`, merged additively
  and evaluated once, which is exact.

Correctness contract: for any chunk size, the streamed outputs are
bit-identical to the whole-trace engines (gated by
``tests/experiments/test_streaming.py`` across all workloads and
architectures).

Memory accounting: at every chunk boundary the orchestrator records
the exact bytes of live chunk arrays into the ``bytes_in_flight``
gauge and samples the process peak RSS (:mod:`repro.obs.memory`), so
streaming runs report how bounded their working set actually was.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Iterable

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.obs.memory import record_bytes_in_flight, record_peak_rss
from repro.obs.telemetry import get_telemetry
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.power.energy import EnergyParams
from repro.power.report import PowerReport
from repro.scalar.arch_batch import ArchCarry, process_columns_chunk
from repro.scalar.batch import ClassifierCarry, classify_columnar_chunk
from repro.scalar.columns import ClassifiedColumns, ProcessedColumns
from repro.timing.gpu import simulate_warp_ops
from repro.timing.ops import TimingOpTable, build_timing_ops_columns
from repro.timing.sm import TimingResult
from repro.simt.trace import TraceChunk


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
    """Everything a streamed pipeline run produced."""

    num_events: int
    num_chunks: int
    timing: dict[str, TimingResult]  # by architecture name
    power: dict[str, PowerReport]  # by architecture name
    peak_bytes_in_flight: int


class StreamingPipeline:
    """Incremental classify -> process -> lower -> account pipeline.

    Feed :class:`~repro.simt.trace.TraceChunk` objects in stream order
    (:func:`repro.simt.trace.iter_chunks`, or a generator that never
    materializes the whole trace), then :meth:`finish` to run the SM
    timing simulation and evaluate the merged power aggregates.

    ``static_widths`` maps architecture name to the per-register
    ``enc`` table for ``static_compress`` interpretations (same value
    the whole-trace path feeds :func:`repro.scalar.arch_batch.process_columns`).
    ``collect_timing_ops=False`` skips the timing lowering entirely —
    the benchmark harness uses this to measure the bounded-memory
    classify/process/account spine on its own (the op tables are the
    one stage whose footprint grows with the trace).

    ``on_classified(chunk, ccols)`` / ``on_processed(chunk, arch, pcols)``
    observe each fragment as it is produced (tests reassemble them for
    exact comparison).

    :class:`~repro.experiments.runner.ExperimentRunner` streams each
    (benchmark, architecture) pair through a one-architecture pipeline
    when ``chunk_events`` is set.
    """

    def __init__(
        self,
        arches: Iterable[ArchitectureConfig],
        num_registers: int,
        config: GpuConfig | None = None,
        params: EnergyParams | None = None,
        static_widths: dict[str, tuple[int, ...] | None] | None = None,
        collect_timing_ops: bool = True,
        on_classified: Callable[[TraceChunk, ClassifiedColumns], None] | None = None,
        on_processed: (
            Callable[[TraceChunk, ArchitectureConfig, ProcessedColumns], None] | None
        ) = None,
    ):
        self.arches = list(arches)
        self.num_registers = num_registers
        self.config = config or GpuConfig()
        self.params = params
        self.static_widths = static_widths or {}
        self.collect_timing_ops = collect_timing_ops
        self.on_classified = on_classified
        self.on_processed = on_processed

        self.classifier_carry = ClassifierCarry()
        self.arch_carries = {arch.name: ArchCarry() for arch in self.arches}
        self.accountants = {
            arch.name: PowerAccountant(arch, params, self.config)
            for arch in self.arches
        }
        self.aggregates: dict[str, _PowerAggregates] = {
            arch.name: _PowerAggregates() for arch in self.arches
        }
        self.op_tables: dict[str, list[TimingOpTable]] = {
            arch.name: [] for arch in self.arches
        }
        #: Per fed chunk: does its first warp continue the previous one?
        self.continued: list[bool] = []
        self.num_events = 0
        self.num_chunks = 0
        self.peak_bytes_in_flight = 0
        self._finished = False

    # ------------------------------------------------------------------
    def feed(self, chunk: TraceChunk) -> None:
        """Run one chunk through every stage, carrying state forward."""
        if self._finished:
            raise RuntimeError("StreamingPipeline.feed after finish")
        ccols = classify_columnar_chunk(
            chunk, self.num_registers, self.classifier_carry
        )
        if self.on_classified is not None:
            self.on_classified(chunk, ccols)

        live_bytes = _array_bytes(chunk.columnar) + _array_bytes(ccols)
        for arch in self.arches:
            pcols = process_columns_chunk(
                ccols,
                arch,
                self.arch_carries[arch.name],
                warp_start=chunk.warp_start,
                first_warp_continued=chunk.first_warp_continued,
                last_warp_continues=chunk.last_warp_continues,
                static_widths=self.static_widths.get(arch.name),
            )
            live_bytes += _array_bytes(pcols)
            if self.on_processed is not None:
                self.on_processed(chunk, arch, pcols)

            self.aggregates[arch.name].merge(
                self.accountants[arch.name].aggregates_from_columns(
                    pcols, warp_base=chunk.warp_start
                )
            )

            if self.collect_timing_ops:
                self.op_tables[arch.name].append(
                    build_timing_ops_columns(ccols, pcols, arch, self.config)
                )

        self.continued.append(chunk.first_warp_continued)
        self.num_events += chunk.num_events
        self.num_chunks += 1
        if live_bytes > self.peak_bytes_in_flight:
            self.peak_bytes_in_flight = live_bytes
        telemetry = get_telemetry()
        if telemetry.enabled:
            record_bytes_in_flight(live_bytes, telemetry)
            record_peak_rss(telemetry)

    # ------------------------------------------------------------------
    def finish(self, warps_per_cta: int | None = None) -> StreamOutcome:
        """Run the SM simulation per architecture and evaluate power."""
        if self._finished:
            raise RuntimeError("StreamingPipeline.finish after finish")
        if not self.collect_timing_ops:
            raise RuntimeError(
                "finish() needs timing ops; this pipeline was built with "
                "collect_timing_ops=False (aggregates-only mode)"
            )
        self._finished = True
        timing: dict[str, TimingResult] = {}
        power: dict[str, PowerReport] = {}
        for arch in self.arches:
            # pop: the fragments die once joined, before the simulation.
            result = simulate_warp_ops(
                TimingOpTable.concat(self.op_tables.pop(arch.name), self.continued),
                arch,
                self.config,
                warps_per_cta=warps_per_cta,
            )
            timing[arch.name] = result
            power[arch.name] = self.accountants[arch.name].account_aggregates(
                self.aggregates[arch.name], result
            )
        telemetry = get_telemetry()
        if telemetry.enabled:
            record_peak_rss(telemetry)
        return StreamOutcome(
            num_events=self.num_events,
            num_chunks=self.num_chunks,
            timing=timing,
            power=power,
            peak_bytes_in_flight=self.peak_bytes_in_flight,
        )


def stream_pipeline(
    chunks: Iterable[TraceChunk],
    arches: Iterable[ArchitectureConfig],
    num_registers: int,
    config: GpuConfig | None = None,
    params: EnergyParams | None = None,
    static_widths: dict[str, tuple[int, ...] | None] | None = None,
    warps_per_cta: int | None = None,
    on_classified: Callable[[TraceChunk, ClassifiedColumns], None] | None = None,
    on_processed: (
        Callable[[TraceChunk, ArchitectureConfig, ProcessedColumns], None] | None
    ) = None,
) -> StreamOutcome:
    """Drive a whole chunk stream end to end (the one-call form)."""
    pipeline = StreamingPipeline(
        arches,
        num_registers,
        config=config,
        params=params,
        static_widths=static_widths,
        on_classified=on_classified,
        on_processed=on_processed,
    )
    for chunk in chunks:
        pipeline.feed(chunk)
    return pipeline.finish(warps_per_cta=warps_per_cta)
