"""Vectorized classification straight to :class:`ClassifiedColumns`.

Under G-Scalar's sidecar rules a source read sees the encoding that its
register's latest write in the warp left in the BVR/EBR (§3.1); when
that write was divergent, the read also compares the reader's active
mask against the mask the BVR holds (§4.2).  Classification is
therefore a gather over write rows, not a sequential state machine:

* every write row's encoding comes from array kernels run over fixed
  blocks of write rows (:data:`WRITE_BLOCK_ROWS`, so their temporaries
  do not grow with the trace) —
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

Sidecar state never outlives its warp, so a run of whole warps (a
:class:`~repro.simt.trace.TraceChunk`) classifies as a trace of its
own.  The per-event tracker in ``tests/reference`` is the test oracle:
``tests/scalar/test_batch.py`` pins the two array for array.
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
from repro.simt.trace import ColumnarTrace

_NOT_ELIGIBLE = SCALAR_CLASS_TO_ID[ScalarClass.NOT_ELIGIBLE]
_ALU = SCALAR_CLASS_TO_ID[ScalarClass.ALU_SCALAR]
_SFU = SCALAR_CLASS_TO_ID[ScalarClass.SFU_SCALAR]
_MEM = SCALAR_CLASS_TO_ID[ScalarClass.MEM_SCALAR]
_HALF = SCALAR_CLASS_TO_ID[ScalarClass.HALF_SCALAR]
_DIVERGENT = SCALAR_CLASS_TO_ID[ScalarClass.DIVERGENT_SCALAR]

#: Class id -> telemetry label (the enum value string).
_CLASS_LABELS = {index: cls.value for index, cls in ID_TO_SCALAR_CLASS.items()}


#: Write rows :func:`_write_states` encodes at a time.  The encoders'
#: temporaries are a few copies of a ``(rows, warp_size)`` value matrix,
#: so a block bounds them whatever the size of the chunk classified.
WRITE_BLOCK_ROWS = 1024


def _write_states(
    values: np.ndarray,
    rows: np.ndarray,
    masks: np.ndarray,
    divergent: np.ndarray,
    warp_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(enc, enc_lo, enc_hi)`` of each write row.

    Write *i*'s lane values are ``values[rows[i]]``.  Full writes get
    the §3.1 prefix and the §4.3 half pairs; divergent writes get the
    §4.2 masked prefix over their active lanes and no half pairs (zero,
    as the tracker's ``RegisterEncoding`` holds).  Rows are encoded
    :data:`WRITE_BLOCK_ROWS` at a time.
    """
    count = rows.shape[0]
    enc = np.zeros(count, dtype=np.int8)
    enc_lo = np.zeros(count, dtype=np.int8)
    enc_hi = np.zeros(count, dtype=np.int8)
    granularity = min(HALF_GRANULARITY, warp_size // 2)
    lanes = np.arange(warp_size, dtype=np.uint64)
    for start in range(0, count, WRITE_BLOCK_ROWS):
        block = slice(start, start + WRITE_BLOCK_ROWS)
        block_values = values[rows[block]]
        split = divergent[block]
        full = ~split
        if split.any():
            active = ((masks[block][split, None] >> lanes) & np.uint64(1)).astype(bool)
            enc[block][split] = masked_prefix_bytes_batch(block_values[split], active)
            # Only a block with a divergent write copies its full rows out.
            block_values = block_values[full]
        if block_values.shape[0]:
            enc[block][full] = prefix_bytes_batch(block_values)
            halves = compress_halves_batch(block_values, granularity=granularity)
            enc_lo[block][full] = halves.enc_lo
            enc_hi[block][full] = halves.enc_hi
    return enc, enc_lo, enc_hi


def _all_per_event(
    source_events: np.ndarray, flags: np.ndarray, count: int
) -> np.ndarray:
    """Per event: is ``flags`` true for every one of its sources?

    Events without sources count as all-true, as ``all(())`` does.
    """
    misses = np.bincount(source_events, weights=~flags, minlength=count)
    return misses == 0


def _classify(columnar: ColumnarTrace, num_registers: int) -> ClassifiedColumns:
    """Classify one columnar trace (see the module docstring)."""
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
        columnar.values,
        columnar.values_index[writes],
        write_masks,
        write_divergent,
        warp_size,
    )

    # One state table: this trace's write rows, then one uncompressed
    # row for registers no write has reached.
    uncompressed = writes.size
    table_enc, table_lo, table_hi, table_divergent, table_mask = (
        np.concatenate([column, np.zeros(1, dtype=column.dtype)])
        for column in (write_enc, write_lo, write_hi, write_divergent, write_masks)
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
    row_of_event[writes] = np.arange(writes.size, dtype=np.int64)
    state = np.where(latest >= 0, row_of_event[latest], uncompressed)
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

    telemetry = get_telemetry()
    if telemetry.enabled:
        record_classified_columns(telemetry, columns, _CLASS_LABELS)
    return columns


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
