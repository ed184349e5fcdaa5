"""Dynamic-trace containers produced by the functional executor.

The executor records every dynamic instruction of a warp as one row:
opcode, register numbers, the active mask it ran under, and — for
instructions that write a register — a snapshot of the destination
register's full contents *after* the write.  That snapshot is what the
compression / scalar-eligibility machinery consumes, so a trace is
self-contained: no re-execution is ever needed downstream.

The trace has one production form, :class:`ColumnarTrace`: a
struct-of-arrays layout packing every per-event field into flat numpy
arrays with offset tables for the ragged ones, plus one
``(n_rows, warp_size)`` uint32 matrix of destination snapshots.
:func:`repro.simt.executor.run_kernel` records one row per group step
in a :class:`StepRows` buffer and packs it once
(:meth:`ColumnarTrace.pack`); the batch classifier
(:mod:`repro.scalar.batch`) and the on-disk format
(:mod:`repro.simt.serialize`) read the result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import TraceError
from repro.isa.opcodes import Opcode, category_of

#: Stable opcode numbering shared by the columnar form and the on-disk
#: format (enum order would silently re-map if opcodes were reordered).
OPCODE_TO_ID = {
    opcode: index
    for index, opcode in enumerate(sorted(Opcode, key=lambda o: o.value))
}
ID_TO_OPCODE = {index: opcode for opcode, index in OPCODE_TO_ID.items()}


def opcode_labels() -> dict[int, tuple[str, str]]:
    """Stored opcode id -> ``(category, opcode)`` telemetry label pair.

    Feeds :func:`repro.obs.instrument.record_columnar_warps`, which
    must not import simulation packages itself.
    """
    return {
        index: (category_of(opcode).value, opcode.value)
        for index, opcode in ID_TO_OPCODE.items()
    }


class StepRows:
    """The executor's step buffer: one record per group step.

    A step is one dynamic instruction (or ``bra``/``bar.sync``) run by
    a group of warps at the same program point.  The per-step fields
    are shared by the group; ``warps`` (positions in ``warp_ids``),
    ``masks`` and the ``(k, warp_size)`` destination snapshots and
    addresses hold one row per warp.  :meth:`ColumnarTrace.pack`
    scatters the steps to warp-major event order.
    """

    __slots__ = (
        "warp_ids",
        "opcode_ids",
        "dst",
        "src_regs",
        "blocks",
        "varying",
        "scalar_nonreg",
        "warps",
        "masks",
        "values",
        "addresses",
    )

    def __init__(self, warp_ids: Sequence[int]):
        self.warp_ids = list(warp_ids)
        self.opcode_ids: list[int] = []
        self.dst: list[int] = []
        self.src_regs: list[Sequence[int]] = []
        self.blocks: list[int] = []
        self.varying: list[bool] = []
        self.scalar_nonreg: list[int] = []
        self.warps: list[np.ndarray] = []
        self.masks: list[np.ndarray] = []
        self.values: list[np.ndarray | None] = []
        self.addresses: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self.opcode_ids)

    def append(
        self,
        opcode_id: int,
        dst: int,
        src_regs: Sequence[int],
        warps: np.ndarray,
        masks: np.ndarray,
        block: int,
        values: np.ndarray | None = None,
        addresses: np.ndarray | None = None,
        varying: bool = False,
        scalar_nonreg: int = 0,
    ) -> None:
        """Record one step; ``dst`` is ``-1`` when nothing is written."""
        self.opcode_ids.append(opcode_id)
        self.dst.append(dst)
        self.src_regs.append(src_regs)
        self.blocks.append(block)
        self.varying.append(varying)
        self.scalar_nonreg.append(scalar_nonreg)
        self.warps.append(warps)
        self.masks.append(masks)
        self.values.append(values)
        self.addresses.append(addresses)


@dataclass
class ColumnarTrace:
    """Struct-of-arrays representation of one kernel trace.

    Events of all warps are concatenated warp-major (warp 0's stream,
    then warp 1's, ...); ``warp_ids``/``warp_lengths`` delimit the
    per-warp segments.  Fixed-width per-event fields are flat arrays;
    the ragged ones use offset/index tables:

    * ``src_offsets``/``src_flat`` — event *i*'s source registers are
      ``src_flat[src_offsets[i]:src_offsets[i + 1]]``,
    * ``values_index`` — row of ``values`` holding event *i*'s
      destination snapshot (``-1`` when the event writes no register),
    * ``addr_index``/``addresses`` — ditto for per-lane addresses.

    ``values`` is the ``(n_rows, warp_size)`` uint32 matrix the batch
    classifier's whole-trace array kernels run over; ``dst`` encodes a
    missing destination as ``-1``.  Opcodes are stored as
    :data:`OPCODE_TO_ID` codes.
    """

    kernel_name: str
    warp_size: int
    warp_ids: np.ndarray  # (n_warps,) int32
    warp_lengths: np.ndarray  # (n_warps,) int64
    opcode_ids: np.ndarray  # (n,) uint16
    dst: np.ndarray  # (n,) int32, -1 = no destination
    masks: np.ndarray  # (n,) uint64
    blocks: np.ndarray  # (n,) int32
    varying: np.ndarray  # (n,) bool
    scalar_nonreg: np.ndarray  # (n,) uint8
    src_offsets: np.ndarray  # (n + 1,) int64
    src_flat: np.ndarray  # int32
    values_index: np.ndarray  # (n,) int64, -1 = no snapshot
    values: np.ndarray  # (n_value_rows, warp_size) uint32
    addr_index: np.ndarray  # (n,) int64, -1 = no addresses
    addresses: np.ndarray  # (n_addr_rows, warp_size) uint32

    @property
    def num_events(self) -> int:
        return int(self.opcode_ids.shape[0])

    @property
    def num_warps(self) -> int:
        return int(self.warp_ids.shape[0])

    @property
    def total_instructions(self) -> int:
        return self.num_events

    def source_events(self) -> np.ndarray:
        """Event index of every source-register row of ``src_flat``."""
        return np.repeat(
            np.arange(self.num_events, dtype=np.int64), np.diff(self.src_offsets)
        )

    def latest_writes(
        self, events: np.ndarray, registers: np.ndarray
    ) -> np.ndarray:
        """Latest register write before each query, within its warp.

        Query *k* asks which event last wrote register ``registers[k]``
        in the warp of event ``events[k]``, strictly before that event.
        A write is an event with a destination register and a value
        snapshot.  Returns those event indices, ``-1`` where the
        register has no earlier write in the warp.

        This is the vector form of the ``register -> last write`` dict
        an event walk keeps per warp: the write rows are sorted by
        ``(warp, register, event)`` and one ``searchsorted`` answers
        every query.
        """
        events = np.asarray(events, dtype=np.int64)
        registers = np.asarray(registers, dtype=np.int64)
        warp_of = np.repeat(
            np.arange(self.num_warps, dtype=np.int64), self.warp_lengths
        )
        writes = np.flatnonzero((self.dst >= 0) & (self.values_index >= 0))
        if writes.size == 0:
            return np.full(events.shape[0], -1, dtype=np.int64)
        stride = 1 + max(
            int(self.dst.max(initial=-1)), int(registers.max(initial=-1))
        )
        write_keys = warp_of[writes] * stride + self.dst[writes]
        # ``key * span + event`` is increasing in the lexsort order, so
        # one searchsorted on it finds each query's predecessor write.
        span = self.num_events + 1
        order = np.lexsort((writes, write_keys))
        sorted_keys = write_keys[order]
        sorted_events = writes[order]
        query_keys = warp_of[events] * stride + registers
        position = np.searchsorted(
            sorted_keys * span + sorted_events, query_keys * span + events
        ) - 1
        found = position >= 0
        found[found] = sorted_keys[position[found]] == query_keys[found]
        return np.where(found, sorted_events[np.maximum(position, 0)], -1)

    def warp_slices(self) -> list[tuple[int, slice]]:
        """``(warp_id, event-range slice)`` per warp, in stored order."""
        slices: list[tuple[int, slice]] = []
        position = 0
        for warp_id, length in zip(
            self.warp_ids.tolist(), self.warp_lengths.tolist()
        ):
            slices.append((warp_id, slice(position, position + length)))
            position += length
        return slices

    @classmethod
    def pack(
        cls, kernel_name: str, warp_size: int, steps: StepRows
    ) -> "ColumnarTrace":
        """Scatter a step buffer to one warp-major trace.

        A stable argsort on each event's warp keeps every warp's events
        in the order its steps were recorded.
        """
        n_steps = len(steps)
        sizes = np.fromiter(map(len, steps.warps), dtype=np.int64, count=n_steps)
        event_step = np.repeat(np.arange(n_steps, dtype=np.int64), sizes)
        event_warp = (
            np.concatenate(steps.warps).astype(np.int64, copy=False)
            if n_steps
            else np.zeros(0, dtype=np.int64)
        )
        order = np.argsort(event_warp, kind="stable")
        step_of = event_step[order]

        def column(name: str, dtype) -> np.ndarray:
            return np.array(getattr(steps, name), dtype=dtype)[step_of]

        def rows(name: str) -> tuple[np.ndarray, np.ndarray]:
            matrices = getattr(steps, name)
            present = np.fromiter(
                (matrix is not None for matrix in matrices), dtype=bool, count=n_steps
            )[event_step]
            if not present.any():
                return (
                    np.full(order.shape[0], -1, dtype=np.int64),
                    np.empty((0, warp_size), dtype=np.uint32),
                )
            stacked = np.concatenate([m for m in matrices if m is not None])
            # Rows were stacked in step order; gather them in event order.
            row_of = np.cumsum(present, dtype=np.int64) - 1
            present = present[order]
            index = np.where(present, np.cumsum(present, dtype=np.int64) - 1, -1)
            return index, stacked[row_of[order][present]]

        step_src_counts = np.fromiter(
            map(len, steps.src_regs), dtype=np.int64, count=n_steps
        )
        step_src_flat = np.fromiter(
            chain.from_iterable(steps.src_regs), dtype=np.int32
        )
        step_src_starts = np.cumsum(step_src_counts) - step_src_counts
        src_counts = step_src_counts[step_of]
        src_offsets = np.zeros(src_counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(src_counts, out=src_offsets[1:])
        src_flat = step_src_flat[
            np.repeat(step_src_starts[step_of] - src_offsets[:-1], src_counts)
            + np.arange(src_offsets[-1], dtype=np.int64)
        ]
        values_index, values = rows("values")
        addr_index, addresses = rows("addresses")
        return cls(
            kernel_name=kernel_name,
            warp_size=warp_size,
            warp_ids=np.array(steps.warp_ids, dtype=np.int32),
            warp_lengths=np.bincount(
                event_warp, minlength=len(steps.warp_ids)
            ).astype(np.int64),
            opcode_ids=column("opcode_ids", np.uint16),
            dst=column("dst", np.int32),
            masks=(
                np.concatenate(steps.masks).astype(np.uint64, copy=False)[order]
                if n_steps
                else np.zeros(0, dtype=np.uint64)
            ),
            blocks=column("blocks", np.int32),
            varying=column("varying", bool),
            scalar_nonreg=column("scalar_nonreg", np.uint8),
            src_offsets=src_offsets,
            src_flat=src_flat,
            values_index=values_index,
            values=values,
            addr_index=addr_index,
            addresses=addresses,
        )

    def slice_events(self, start: int, stop: int) -> "ColumnarTrace":
        """View-based sub-trace over the event range ``[start, stop)``.

        Fixed-width columns come back as views of this trace's arrays;
        the ragged tables (``src_offsets``/``values_index``/
        ``addr_index``) are rebased to the range, which is cheap — the
        snapshot and address *rows* stay views because
        :meth:`pack` stores them in event order, so any event
        range maps to a contiguous row range.  Warp tables cover the
        warps whose segments intersect the range, with boundary warps'
        lengths clipped to it (:class:`TraceChunk` records whether they
        continue across the cut).
        """
        warp_lo, warp_hi, warp_lengths = self._warps_in_range(start, stop)
        src_offsets = (
            self.src_offsets[start : stop + 1] - self.src_offsets[start]
        )
        src_flat = self.src_flat[
            self.src_offsets[start] : self.src_offsets[stop]
        ]
        values_index, values = _rebase_rows(
            self.values_index[start:stop], self.values, self.warp_size
        )
        addr_index, addresses = _rebase_rows(
            self.addr_index[start:stop], self.addresses, self.warp_size
        )
        return ColumnarTrace(
            kernel_name=self.kernel_name,
            warp_size=self.warp_size,
            warp_ids=self.warp_ids[warp_lo:warp_hi],
            warp_lengths=warp_lengths,
            opcode_ids=self.opcode_ids[start:stop],
            dst=self.dst[start:stop],
            masks=self.masks[start:stop],
            blocks=self.blocks[start:stop],
            varying=self.varying[start:stop],
            scalar_nonreg=self.scalar_nonreg[start:stop],
            src_offsets=src_offsets,
            src_flat=src_flat,
            values_index=values_index,
            values=values,
            addr_index=addr_index,
            addresses=addresses,
        )

    def _warp_bounds(self) -> np.ndarray:
        """Cumulative event bounds: warp *w* owns ``[b[w], b[w + 1])``."""
        bounds = np.zeros(self.num_warps + 1, dtype=np.int64)
        np.cumsum(self.warp_lengths, out=bounds[1:])
        return bounds

    def _warps_in_range(
        self, start: int, stop: int
    ) -> tuple[int, int, np.ndarray]:
        """Warps whose segments touch ``[start, stop)``.

        Returns ``(first_warp, one_past_last_warp, clipped_lengths)``.
        A zero-length warp sitting exactly on a chunk boundary goes to
        the chunk *starting* there (or, at the end of the trace, to the
        final chunk), so every warp lands in exactly one chunk.
        """
        bounds = self._warp_bounds()
        starts, ends = bounds[:-1], bounds[1:]
        total = int(bounds[-1])
        include = (starts < stop) & (ends > start)
        zero = starts == ends
        include |= zero & (starts >= start) & (
            (starts < stop) | ((stop == total) & (starts == stop))
        )
        selected = np.flatnonzero(include)
        if selected.size == 0:
            return 0, 0, np.zeros(0, dtype=np.int64)
        warp_lo = int(selected[0])
        warp_hi = int(selected[-1]) + 1
        lengths = np.clip(ends[warp_lo:warp_hi], start, stop) - np.clip(
            starts[warp_lo:warp_hi], start, stop
        )
        return warp_lo, warp_hi, lengths.astype(np.int64)


def _rebase_rows(
    index: np.ndarray, rows: np.ndarray, warp_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rebase a row-index column to a sliced row matrix.

    ``index`` is a slice of ``values_index``/``addr_index``; the rows it
    references are contiguous (appended in event order), so the slice's
    rows are ``rows[first:last + 1]`` and the rebased index subtracts
    ``first``.  Events without a row keep ``-1``.
    """
    present = index >= 0
    if not present.any():
        return (
            np.full(index.shape[0], -1, dtype=np.int64),
            np.empty((0, warp_size), dtype=rows.dtype),
        )
    referenced = index[present]
    first = int(referenced[0])
    last = int(referenced[-1])
    rebased = np.where(present, index - first, -1).astype(np.int64)
    return rebased, rows[first : last + 1]


@dataclass
class TraceChunk:
    """One event-range window of a streamed trace.

    ``columnar`` is a self-consistent :class:`ColumnarTrace` covering
    this chunk's events only (views of the parent's arrays when produced
    by :func:`iter_chunks`).  Warps split by a chunk boundary appear in
    both neighbouring chunks with clipped lengths;
    ``first_warp_continued`` / ``last_warp_continues`` tell a streaming
    consumer which carry-state to thread across the cut, and
    ``warp_start`` gives the *global* index of the chunk's first warp so
    per-warp carries can be keyed consistently across chunks.
    """

    columnar: ColumnarTrace
    index: int
    start_event: int
    warp_start: int
    first_warp_continued: bool
    last_warp_continues: bool

    @property
    def num_events(self) -> int:
        return self.columnar.num_events


def iter_chunks(columnar: ColumnarTrace, chunk_events: int):
    """Stream a columnar trace as :class:`TraceChunk` windows.

    Chunk boundaries fall every ``chunk_events`` events regardless of
    warp structure — warps are split mid-stream and the per-layer carry
    objects (classifier BVR/EBR state, scalar-RF residency, timing-op
    accumulators, power aggregates) resume them.  An empty trace yields
    one empty chunk so streaming consumers build their (empty) outputs
    through the same path as every other trace.
    """
    if chunk_events < 1:
        raise TraceError(f"chunk_events must be >= 1, got {chunk_events}")
    total = columnar.num_events
    bounds = columnar._warp_bounds()
    index = 0
    start = 0
    while True:
        stop = min(start + chunk_events, total)
        piece = columnar.slice_events(start, stop)
        warp_lo, warp_hi, _ = columnar._warps_in_range(start, stop)
        yield TraceChunk(
            columnar=piece,
            index=index,
            start_event=start,
            warp_start=warp_lo,
            first_warp_continued=(
                warp_hi > warp_lo and int(bounds[warp_lo]) < start
            ),
            last_warp_continues=(
                warp_hi > warp_lo and int(bounds[warp_hi]) > stop
            ),
        )
        index += 1
        start = stop
        if start >= total:
            return


def concat_columnar(traces: list[ColumnarTrace]) -> ColumnarTrace:
    """Concatenate whole-warp columnar traces into one stream.

    The inverse of warp-aligned slicing: per-event and flat arrays
    concatenate, offset/row-index tables rebase.  Used to materialize
    the whole-trace arm of a synthetic replica stream
    (:mod:`repro.workloads.synth`) for differential comparison — the
    streamed arm never builds this.
    """
    if not traces:
        raise TraceError("concat_columnar needs >= 1 trace")
    first = traces[0]
    src_offsets = np.zeros(
        sum(t.num_events for t in traces) + 1, dtype=np.int64
    )
    position = 0
    src_base = 0
    values_index_parts = []
    addr_index_parts = []
    values_base = 0
    addr_base = 0
    for trace in traces:
        count = trace.num_events
        src_offsets[position + 1 : position + count + 1] = (
            trace.src_offsets[1:] - trace.src_offsets[0] + src_base
        )
        src_base = int(src_offsets[position + count])
        position += count
        values_index_parts.append(
            np.where(
                trace.values_index >= 0,
                trace.values_index + values_base,
                -1,
            ).astype(np.int64)
        )
        values_base += int(trace.values.shape[0])
        addr_index_parts.append(
            np.where(
                trace.addr_index >= 0, trace.addr_index + addr_base, -1
            ).astype(np.int64)
        )
        addr_base += int(trace.addresses.shape[0])
    return ColumnarTrace(
        kernel_name=first.kernel_name,
        warp_size=first.warp_size,
        warp_ids=np.concatenate([t.warp_ids for t in traces]),
        warp_lengths=np.concatenate([t.warp_lengths for t in traces]),
        opcode_ids=np.concatenate([t.opcode_ids for t in traces]),
        dst=np.concatenate([t.dst for t in traces]),
        masks=np.concatenate([t.masks for t in traces]),
        blocks=np.concatenate([t.blocks for t in traces]),
        varying=np.concatenate([t.varying for t in traces]),
        scalar_nonreg=np.concatenate([t.scalar_nonreg for t in traces]),
        src_offsets=src_offsets,
        src_flat=np.concatenate([t.src_flat for t in traces]),
        values_index=np.concatenate(values_index_parts),
        values=np.concatenate([t.values for t in traces]),
        addr_index=np.concatenate(addr_index_parts),
        addresses=np.concatenate([t.addresses for t in traces]),
    )
