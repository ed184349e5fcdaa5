"""Columnar (struct-of-arrays) forms of the classified/processed trace.

This module defines the two containers of the columnar spine after
the trace itself:

* :class:`ClassifiedColumns` — the classifier's output
  (:func:`repro.scalar.batch.classify_columnar_batch`): everything the
  figure analyses, the per-architecture interpretation and the timing
  lowering read, as flat numpy arrays shared by every architecture.
  Ragged per-source data uses the same offset-table idiom as
  :class:`~repro.simt.trace.ColumnarTrace`, whose event-side arrays it
  reuses directly.

* :class:`ProcessedColumns` — one architecture's interpretation of the
  stream: per-event ``scalar_executed`` / ``exec_lanes`` /
  ``extra_instructions`` / compressor-decompressor counts plus a flat
  register-file access table (kind id, register, enc, enc_lo/enc_hi,
  mask, sidecar) with per-event offsets, written by
  :func:`repro.scalar.arch_batch.process_columns`.  Access rows appear
  in exactly the order the per-event ``ArchitectureView`` reference in
  ``tests/reference`` emits its
  :class:`~repro.regfile.access.RegisterAccess` records, so the
  differential suite compares the two array for array.

Both containers carry enough context (opcode ids, active-lane counts,
warp lengths) for the vectorized power accountant and the timing
lowering to run without touching a single per-event object.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.isa.opcodes import OpCategory, Opcode, category_of
from repro.regfile.access import ACCESS_KIND_TO_ID, AccessKind
from repro.simt.trace import OPCODE_TO_ID

#: Stable integer coding of :class:`~repro.isa.opcodes.OpCategory`,
#: keyed by the value string (same convention as the other id tables).
CATEGORY_TO_CODE = {
    category: index
    for index, category in enumerate(sorted(OpCategory, key=lambda c: c.value))
}
CODE_TO_CATEGORY = {index: cat for cat, index in CATEGORY_TO_CODE.items()}

#: Per-opcode-id lookup tables used by the batch kernels (index with an
#: ``opcode_ids`` array to get the per-event property).
_NUM_OPCODES = len(OPCODE_TO_ID)
CATEGORY_CODE_BY_OPCODE = np.zeros(_NUM_OPCODES, dtype=np.uint8)
for _opcode, _oid in OPCODE_TO_ID.items():
    CATEGORY_CODE_BY_OPCODE[_oid] = CATEGORY_TO_CODE[category_of(_opcode)]
BAR_OPCODE_ID = OPCODE_TO_ID[Opcode.BAR]

CTRL_CODE = CATEGORY_TO_CODE[OpCategory.CTRL]
SFU_CODE = CATEGORY_TO_CODE[OpCategory.SFU]
MEM_CODE = CATEGORY_TO_CODE[OpCategory.MEM]

#: Access-kind ids the batch kernels scatter into the access table.
FULL_READ_ID = ACCESS_KIND_TO_ID[AccessKind.FULL_READ]
FULL_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.FULL_WRITE]
COMPRESSED_READ_ID = ACCESS_KIND_TO_ID[AccessKind.COMPRESSED_READ]
COMPRESSED_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.COMPRESSED_WRITE]
SCALAR_READ_ID = ACCESS_KIND_TO_ID[AccessKind.SCALAR_READ]
SCALAR_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.SCALAR_WRITE]
PARTIAL_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.PARTIAL_WRITE]
SCALAR_RF_READ_ID = ACCESS_KIND_TO_ID[AccessKind.SCALAR_RF_READ]
SCALAR_RF_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.SCALAR_RF_WRITE]


@dataclass
class ClassifiedColumns:
    """One classified stream as flat arrays (architecture-independent).

    Events of all warps are concatenated warp-major, exactly like
    :class:`~repro.simt.trace.ColumnarTrace`; ``warp_lengths`` delimits
    the per-warp segments.  The per-source table is ragged: event
    *i*'s sources are rows ``src_offsets[i]:src_offsets[i + 1]``, in
    operand order.  Encoding fields hold the sidecar state *at read
    time* for sources and *after/before the write* for destinations;
    events without a written destination have ``has_dst_enc`` False
    and zeroed destination fields.
    """

    warp_size: int
    warp_lengths: np.ndarray  # (n_warps,) int64

    # Per-event (n,).
    opcode_ids: np.ndarray  # uint16
    category_codes: np.ndarray  # uint8, CATEGORY_TO_CODE
    masks: np.ndarray  # uint64
    active_lanes: np.ndarray  # int32
    divergent: np.ndarray  # bool
    blocks: np.ndarray  # int32
    dst: np.ndarray  # int32, -1 = no destination register
    scalar_class_ids: np.ndarray  # uint8, SCALAR_CLASS_TO_ID
    lo_half_exec: np.ndarray  # bool
    hi_half_exec: np.ndarray  # bool
    has_dst_enc: np.ndarray  # bool (dst_encoding is not None)
    needs_move: np.ndarray  # bool (needs_decompress_move, pre-elision)
    dst_enc: np.ndarray  # int8
    dst_enc_lo: np.ndarray  # int8
    dst_enc_hi: np.ndarray  # int8
    dst_is_scalar: np.ndarray  # bool (dst_encoding.is_scalar)
    before_enc: np.ndarray  # int8 (dst_encoding_before, move events)
    before_enc_lo: np.ndarray  # int8
    before_enc_hi: np.ndarray  # int8

    # Per-source table (ragged).
    src_offsets: np.ndarray  # (n + 1,) int64
    src_registers: np.ndarray  # int32
    src_enc: np.ndarray  # int8
    src_enc_lo: np.ndarray  # int8
    src_enc_hi: np.ndarray  # int8
    src_divergent: np.ndarray  # bool (encoding.divergent)
    src_scalar_for_read: np.ndarray  # bool

    # Per-lane addresses (timing lowering), row-indexed like the trace.
    addr_index: np.ndarray  # (n,) int64, -1 = no addresses
    addresses: np.ndarray  # (n_addr_rows, warp_size) uint32

    @property
    def num_events(self) -> int:
        return int(self.opcode_ids.shape[0])

    def warp_bounds(self) -> np.ndarray:
        """``(n_warps + 1,)`` event offsets of each warp's segment."""
        bounds = np.zeros(len(self.warp_lengths) + 1, dtype=np.int64)
        np.cumsum(self.warp_lengths, out=bounds[1:])
        return bounds


#: Array fields of :class:`ClassifiedColumns` in declaration order
#: (``warp_size`` is the only scalar field).
CLASSIFIED_ARRAY_FIELDS = tuple(
    f.name for f in fields(ClassifiedColumns) if f.name != "warp_size"
)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Vectorized popcount of an integer mask array -> int32 counts."""
    if masks.size == 0:
        return np.zeros(0, dtype=np.int32)
    as_bytes = np.ascontiguousarray(masks.astype(np.uint64)).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(masks.size, 8), axis=1)
    return bits.sum(axis=1).astype(np.int32)


@dataclass
class ProcessedColumns:
    """One architecture's processed trace as flat arrays.

    The per-event counters mirror the reference ``ProcessedEvent``
    field-for-field;
    the flat access table stores event *i*'s register-file accesses at
    rows ``acc_offsets[i]:acc_offsets[i + 1]``, in emission order, with
    :data:`repro.regfile.access.ACCESS_KIND_TO_ID` kind codes.
    ``opcode_ids`` / ``category_codes`` / ``active_lanes`` are carried
    through (shared references with the classified columns) so the
    power accountant needs no second container.
    """

    warp_size: int
    warp_lengths: np.ndarray  # (n_warps,) int64

    # Per-event (n,).
    opcode_ids: np.ndarray  # uint16
    category_codes: np.ndarray  # uint8
    active_lanes: np.ndarray  # int32
    scalar_executed: np.ndarray  # bool
    lo_half_scalar: np.ndarray  # bool
    hi_half_scalar: np.ndarray  # bool
    exec_lanes: np.ndarray  # int32
    extra_instructions: np.ndarray  # int32
    compressor_ops: np.ndarray  # int32
    decompressor_ops: np.ndarray  # int32

    # Flat access table.
    acc_offsets: np.ndarray  # (n + 1,) int64
    acc_kind_ids: np.ndarray  # uint8
    acc_registers: np.ndarray  # int32
    acc_enc: np.ndarray  # int8
    acc_enc_lo: np.ndarray  # int8
    acc_enc_hi: np.ndarray  # int8
    acc_half: np.ndarray  # bool (half_compressed)
    acc_masks: np.ndarray  # uint64 (partial writes; 0 elsewhere)
    acc_sidecar: np.ndarray  # bool

    @property
    def num_events(self) -> int:
        return int(self.scalar_executed.shape[0])

    @property
    def num_accesses(self) -> int:
        return int(self.acc_kind_ids.shape[0])


def warp_keys(
    per_row: tuple[np.ndarray, ...],
    offsets: np.ndarray,
    ragged: tuple[np.ndarray, ...],
    starts: list[int],
) -> list[tuple]:
    """One key per warp whose rows are ``starts[i]:starts[i + 1]``.

    Two keys are equal exactly when the two warps' rows are: the bytes
    of every ``per_row`` column, of ``offsets`` rebased to the warp and
    of every ``ragged`` column's entries under those offsets.  Equal
    keys share one object, so a caller holds one key per distinct warp
    and nothing the size of its rows.
    """
    interned: dict[tuple, tuple] = {}
    keys = []
    for first, end in zip(starts, starts[1:]):
        lo, hi = int(offsets[first]), int(offsets[end])
        key = (
            *(column[first:end].tobytes() for column in per_row),
            (offsets[first : end + 1] - lo).tobytes(),
            *(column[lo:hi].tobytes() for column in ragged),
        )
        keys.append(interned.setdefault(key, key))
    return keys


def _concat_offsets(tables: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-chunk offset tables into one running table."""
    parts = [np.zeros(1, dtype=np.int64)]
    base = 0
    for table in tables:
        parts.append(table[1:].astype(np.int64) + base)
        base += int(table[-1])
    return np.concatenate(parts)
