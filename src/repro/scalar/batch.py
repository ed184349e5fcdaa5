"""Vectorized classification straight to :class:`ClassifiedColumns`.

Under G-Scalar's sidecar rules a source read sees the encoding that its
register's latest write in the warp left in the BVR/EBR (§3.1); when
that write was divergent, the read also compares the reader's active
mask against the mask the BVR holds (§4.2).  Classification is
therefore a gather over write rows, not a sequential state machine:

* every write row's encoding comes from one whole-trace array kernel —
  the byte prefix (:func:`~repro.compression.gscalar.prefix_bytes_batch`)
  and the half-register pairs
  (:func:`~repro.compression.half.compress_halves_batch`) for full
  writes, the masked prefix
  (:func:`~repro.compression.gscalar.masked_prefix_bytes_batch`) over
  the expanded lane masks for divergent ones;
* :meth:`~repro.simt.trace.ColumnarTrace.latest_writes` finds, for
  every source read and every destination write, the write row whose
  sidecar state it sees;
* the Figure 9 bucketing is a handful of boolean array operations.

:func:`classify_columnar_chunk` runs the same pass over one
:class:`~repro.simt.trace.TraceChunk`; a :class:`ClassifierCarry`
holds the sidecar state of the one warp a chunk boundary cuts.  The
per-event tracker (:func:`repro.scalar.tracker.classify_trace`) is the
test oracle: ``tests/scalar/test_batch.py`` pins the two array for
array.
"""

from __future__ import annotations

import numpy as np

from repro.compression.encoding import SCALAR_PREFIX
from repro.compression.gscalar import (
    masked_prefix_bytes_batch,
    prefix_bytes_batch,
)
from repro.compression.half import compress_halves_batch
from repro.errors import TraceError
from repro.obs.instrument import record_classified_columns
from repro.obs.telemetry import get_telemetry
from repro.scalar.columns import (
    CATEGORY_CODE_BY_OPCODE,
    CTRL_CODE,
    MEM_CODE,
    SFU_CODE,
    ClassifiedColumns,
    _popcount,
)
from repro.scalar.eligibility import (
    ID_TO_SCALAR_CLASS,
    SCALAR_CLASS_TO_ID,
    ScalarClass,
)
from repro.scalar.tracker import HALF_GRANULARITY
from repro.simt.trace import ColumnarTrace, TraceChunk

_NOT_ELIGIBLE = SCALAR_CLASS_TO_ID[ScalarClass.NOT_ELIGIBLE]
_ALU = SCALAR_CLASS_TO_ID[ScalarClass.ALU_SCALAR]
_SFU = SCALAR_CLASS_TO_ID[ScalarClass.SFU_SCALAR]
_MEM = SCALAR_CLASS_TO_ID[ScalarClass.MEM_SCALAR]
_HALF = SCALAR_CLASS_TO_ID[ScalarClass.HALF_SCALAR]
_DIVERGENT = SCALAR_CLASS_TO_ID[ScalarClass.DIVERGENT_SCALAR]

#: Class id -> telemetry label (the enum value string).
_CLASS_LABELS = {index: cls.value for index, cls in ID_TO_SCALAR_CLASS.items()}


class ClassifierCarry:
    """Sidecar state of the warp a chunk boundary cuts.

    ``registers`` (ascending) and the parallel state arrays hold that
    warp's last write per register so far — what its BVR/EBR contain:
    the prefix ``enc``, the half pair ``enc_lo``/``enc_hi``, the D bit
    (``divergent``) and the writer's active ``mask``.  ``last_class``
    is the warp's last scalar class id, which resumes telemetry's
    consecutive-class transition counter.  Between whole warps the
    carry is empty.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget the carried warp (the last warp ended in its chunk)."""
        self._set(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=bool),
            np.zeros(0, dtype=np.uint64),
        )
        self.last_class: int | None = None

    def _set(self, registers, enc, enc_lo, enc_hi, divergent, mask) -> None:
        self.registers = registers
        self.enc = enc
        self.enc_lo = enc_lo
        self.enc_hi = enc_hi
        self.divergent = divergent
        self.mask = mask

    def _states(self) -> tuple[np.ndarray, ...]:
        return self.enc, self.enc_lo, self.enc_hi, self.divergent, self.mask


def _write_states(
    values: np.ndarray, masks: np.ndarray, divergent: np.ndarray, warp_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(enc, enc_lo, enc_hi)`` of each write row.

    Full writes get the §3.1 prefix and the §4.3 half pairs; divergent
    writes get the §4.2 masked prefix over their active lanes and no
    half pairs (zero, as the tracker's ``RegisterEncoding`` holds).
    """
    count = values.shape[0]
    enc = np.zeros(count, dtype=np.int8)
    enc_lo = np.zeros(count, dtype=np.int8)
    enc_hi = np.zeros(count, dtype=np.int8)
    full = ~divergent
    if full.any():
        full_values = values[full]
        enc[full] = prefix_bytes_batch(full_values)
        halves = compress_halves_batch(
            full_values, granularity=min(HALF_GRANULARITY, warp_size // 2)
        )
        enc_lo[full] = halves.enc_lo
        enc_hi[full] = halves.enc_hi
    if divergent.any():
        lanes = (
            (masks[divergent, None] >> np.arange(warp_size, dtype=np.uint64))
            & np.uint64(1)
        ).astype(bool)
        enc[divergent] = masked_prefix_bytes_batch(values[divergent], lanes)
    return enc, enc_lo, enc_hi


def _all_per_event(
    source_events: np.ndarray, flags: np.ndarray, count: int
) -> np.ndarray:
    """Per event: is ``flags`` true for every one of its sources?

    Events without sources count as all-true, as ``all(())`` does.
    """
    misses = np.bincount(source_events, weights=~flags, minlength=count)
    return misses == 0


def _classify(
    columnar: ColumnarTrace,
    num_registers: int,
    carry: ClassifierCarry | None = None,
    continued: bool = False,
    continues: bool = False,
) -> ClassifiedColumns:
    """Classify one columnar trace or chunk (see the module docstring).

    ``continued``: the first warp resumes the warp ``carry`` holds, so
    its reads and writes fall back to the carried state for registers
    it has not written yet in this chunk.  ``continues``: the last warp
    goes on in the next chunk, so ``carry`` is refilled from it;
    otherwise ``carry`` is emptied.
    """
    if num_registers < 0:
        raise TraceError(f"num_registers must be >= 0, got {num_registers}")
    warp_size = columnar.warp_size
    masks = columnar.masks
    if warp_size < 64:
        wide = np.flatnonzero(masks >> np.uint64(warp_size))
        if wide.size:
            raise TraceError(
                f"event mask {int(masks[wide[0]]):#x} wider than warp size "
                f"{warp_size}"
            )
    count = columnar.num_events
    divergent = masks != np.uint64((1 << warp_size) - 1)
    dst = columnar.dst
    writes = np.flatnonzero((dst >= 0) & (columnar.values_index >= 0))
    write_masks = masks[writes]
    write_divergent = divergent[writes]
    write_enc, write_lo, write_hi = _write_states(
        columnar.values[columnar.values_index[writes]],
        write_masks,
        write_divergent,
        warp_size,
    )

    # One state table: this trace's write rows, then the carried rows,
    # then one uncompressed row for registers no write has reached.
    if continued and carry is not None:
        carried = carry._states()
        carried_registers = carry.registers
    else:
        carried = ClassifierCarry()._states()
        carried_registers = np.zeros(0, dtype=np.int64)
    num_writes = writes.size
    uncompressed = num_writes + carried_registers.size
    table_enc, table_lo, table_hi, table_divergent, table_mask = (
        np.concatenate([mine, theirs, np.zeros(1, dtype=mine.dtype)])
        for mine, theirs in zip(
            (write_enc, write_lo, write_hi, write_divergent, write_masks),
            carried,
        )
    )

    # Whose state each source read and each destination write sees.
    source_events = columnar.source_events()
    num_sources = source_events.size
    query_events = np.concatenate([source_events, writes])
    query_registers = np.concatenate(
        [columnar.src_flat.astype(np.int64), dst[writes].astype(np.int64)]
    )
    latest = columnar.latest_writes(query_events, query_registers)
    row_of_event = np.full(count, -1, dtype=np.int64)
    row_of_event[writes] = np.arange(num_writes, dtype=np.int64)
    state = np.where(latest >= 0, row_of_event[latest], uncompressed)
    if carried_registers.size:
        first_warp_end = int(columnar.warp_lengths[0])
        fallback = np.flatnonzero((latest < 0) & (query_events < first_warp_end))
        position = np.searchsorted(carried_registers, query_registers[fallback])
        position = np.minimum(position, carried_registers.size - 1)
        hit = carried_registers[position] == query_registers[fallback]
        state[fallback[hit]] = num_writes + position[hit]
    source_state = state[:num_sources]
    before_state = state[num_sources:]

    # §4.1/§4.2 source rules.
    src_enc = table_enc[source_state]
    src_enc_lo = table_lo[source_state]
    src_enc_hi = table_hi[source_state]
    src_divergent = table_divergent[source_state]
    src_scalar = src_enc == SCALAR_PREFIX
    src_scalar_for_read = np.where(
        src_divergent,
        divergent[source_events]
        & src_scalar
        & (table_mask[source_state] == masks[source_events]),
        src_scalar,
    )
    # Divergent writers hold no half pairs (enc_lo/enc_hi are zero).
    all_scalar = _all_per_event(source_events, src_scalar_for_read, count)
    all_lo = _all_per_event(source_events, src_enc_lo == SCALAR_PREFIX, count)
    all_hi = _all_per_event(source_events, src_enc_hi == SCALAR_PREFIX, count)

    # Figure 9 bucketing (classify_instruction, vectorized).
    category_codes = CATEGORY_CODE_BY_OPCODE[columnar.opcode_ids]
    eligible = (category_codes != CTRL_CODE) & ~columnar.varying
    convergent_scalar = eligible & ~divergent & all_scalar
    half = eligible & ~divergent & ~all_scalar & (all_lo | all_hi)
    class_ids = np.full(count, _NOT_ELIGIBLE, dtype=np.uint8)
    class_ids[eligible & divergent & all_scalar] = _DIVERGENT
    class_ids[convergent_scalar] = _ALU
    class_ids[convergent_scalar & (category_codes == SFU_CODE)] = _SFU
    class_ids[convergent_scalar & (category_codes == MEM_CODE)] = _MEM
    class_ids[half] = _HALF

    # Destinations: the state after the write, and the §3.3 move a
    # divergent write into a compressed register needs first.
    has_dst_enc = np.zeros(count, dtype=bool)
    has_dst_enc[writes] = True
    dst_enc = np.zeros(count, dtype=np.int8)
    dst_enc_lo = np.zeros(count, dtype=np.int8)
    dst_enc_hi = np.zeros(count, dtype=np.int8)
    dst_enc[writes] = write_enc
    dst_enc_lo[writes] = write_lo
    dst_enc_hi[writes] = write_hi
    dst_is_scalar = np.zeros(count, dtype=bool)
    dst_is_scalar[writes] = write_enc == SCALAR_PREFIX
    moves = (
        write_divergent
        & ~table_divergent[before_state]
        & (table_enc[before_state] > 0)
    )
    needs_move = np.zeros(count, dtype=bool)
    needs_move[writes] = moves
    before_enc = np.zeros(count, dtype=np.int8)
    before_enc_lo = np.zeros(count, dtype=np.int8)
    before_enc_hi = np.zeros(count, dtype=np.int8)
    moved = writes[moves]
    before_enc[moved] = table_enc[before_state[moves]]
    before_enc_lo[moved] = table_lo[before_state[moves]]
    before_enc_hi[moved] = table_hi[before_state[moves]]

    columns = ClassifiedColumns(
        warp_size=warp_size,
        warp_lengths=columnar.warp_lengths.astype(np.int64),
        opcode_ids=columnar.opcode_ids,
        category_codes=category_codes,
        masks=masks,
        active_lanes=_popcount(masks),
        divergent=divergent,
        blocks=columnar.blocks,
        dst=dst,
        scalar_class_ids=class_ids,
        lo_half_exec=half & all_lo,
        hi_half_exec=half & all_hi,
        has_dst_enc=has_dst_enc,
        needs_move=needs_move,
        dst_enc=dst_enc,
        dst_enc_lo=dst_enc_lo,
        dst_enc_hi=dst_enc_hi,
        dst_is_scalar=dst_is_scalar,
        before_enc=before_enc,
        before_enc_lo=before_enc_lo,
        before_enc_hi=before_enc_hi,
        src_offsets=columnar.src_offsets,
        src_registers=columnar.src_flat,
        src_enc=src_enc,
        src_enc_lo=src_enc_lo,
        src_enc_hi=src_enc_hi,
        src_divergent=src_divergent,
        src_scalar_for_read=src_scalar_for_read,
        addr_index=columnar.addr_index,
        addresses=columnar.addresses,
    )

    previous_class = carry.last_class if continued and carry is not None else None
    telemetry = get_telemetry()
    if telemetry.enabled:
        record_classified_columns(
            telemetry, columns, _CLASS_LABELS, previous_class=previous_class
        )
    if carry is not None:
        if continues:
            _refill_carry(
                carry,
                columnar,
                writes,
                (
                    dst[writes].astype(np.int64),
                    write_enc,
                    write_lo,
                    write_hi,
                    write_divergent,
                    write_masks,
                ),
                (carried_registers,) + carried if columnar.num_warps == 1 else None,
            )
            carry.last_class = int(class_ids[-1])
        else:
            carry.clear()
    return columns


def _refill_carry(
    carry: ClassifierCarry,
    columnar: ColumnarTrace,
    writes: np.ndarray,
    write_columns: tuple[np.ndarray, ...],
    resumed: tuple[np.ndarray, ...] | None,
) -> None:
    """Store the last warp's last write per register in ``carry``.

    ``write_columns`` are (register, enc, enc_lo, enc_hi, divergent,
    mask) per write row.  ``resumed`` holds the carried columns when
    the last warp is also the continued first warp (a warp spanning
    three or more chunks): this chunk's writes then land on top of
    them.
    """
    last_start = columnar.num_events - int(columnar.warp_lengths[-1])
    tail = int(np.searchsorted(writes, last_start))
    merged = [column[tail:] for column in write_columns]
    if resumed is not None:
        merged = [np.concatenate(pair) for pair in zip(resumed, merged)]
    # Each register's last write ends its run in a stable sort (fancy
    # assignment with repeated indices has no guaranteed order).
    order = np.argsort(merged[0], kind="stable")
    ordered = merged[0][order]
    run_end = np.ones(ordered.size, dtype=bool)
    run_end[:-1] = ordered[1:] != ordered[:-1]
    last = order[run_end]
    carry._set(*(column[last] for column in merged))


def classify_columnar_batch(
    columnar: ColumnarTrace, num_registers: int
) -> ClassifiedColumns:
    """Classify a whole columnar trace (fresh sidecar state per warp)."""
    telemetry = get_telemetry()
    with telemetry.span(
        f"classify:{columnar.kernel_name}",
        cat="kernel",
        kernel=columnar.kernel_name,
    ):
        return _classify(columnar, num_registers)


def classify_columnar_chunk(
    chunk: TraceChunk,
    num_registers: int,
    carry: ClassifierCarry,
) -> ClassifiedColumns:
    """Classify one :class:`~repro.simt.trace.TraceChunk`.

    A warp cut by a chunk boundary resumes from ``carry``, so
    :func:`~repro.scalar.columns.concat_classified_columns` over every
    chunk's columns equals :func:`classify_columnar_batch` on the
    whole trace, and the telemetry counters match too.
    """
    columnar = chunk.columnar
    telemetry = get_telemetry()
    with telemetry.span(
        f"classify:{columnar.kernel_name}",
        cat="kernel",
        kernel=columnar.kernel_name,
    ):
        return _classify(
            columnar,
            num_registers,
            carry,
            continued=chunk.first_warp_continued,
            continues=chunk.last_warp_continues,
        )
