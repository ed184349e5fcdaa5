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
  mask, sidecar) with per-event offsets.  Access rows appear in
  exactly the order :class:`~repro.scalar.architectures.ArchitectureView`
  emits its :class:`~repro.regfile.access.RegisterAccess` records, so
  :meth:`ProcessedColumns.from_events` (the event-engine bridge) and
  :func:`repro.scalar.arch_batch.process_columns` (the batch engine)
  are comparable with :func:`processed_columns_equal` — the
  differential suite pins them array-for-array.

Both containers carry enough context (opcode ids, active-lane counts,
warp lengths) for the vectorized power accountant and the timing
lowering to run without touching a single per-event object.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.isa.opcodes import OpCategory, Opcode, category_of
from repro.regfile.access import ACCESS_KIND_TO_ID, WRITE_KIND_IDS, AccessKind
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

READ_KIND_IDS = frozenset(
    set(ACCESS_KIND_TO_ID.values()) - set(WRITE_KIND_IDS)
)

_EMPTY_U32 = np.empty((0, 0), dtype=np.uint32)


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

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All array fields by name (the v5 bank payload)."""
        return {name: getattr(self, name) for name in CLASSIFIED_ARRAY_FIELDS}

    @classmethod
    def from_arrays(
        cls, warp_size: int, arrays: dict[str, np.ndarray]
    ) -> "ClassifiedColumns":
        """Rebuild from :meth:`as_arrays` output (mmap views welcome)."""
        return cls(
            warp_size=warp_size,
            **{name: arrays[name] for name in CLASSIFIED_ARRAY_FIELDS},
        )

    def warp_bounds(self) -> np.ndarray:
        """``(n_warps + 1,)`` event offsets of each warp's segment."""
        bounds = np.zeros(len(self.warp_lengths) + 1, dtype=np.int64)
        np.cumsum(self.warp_lengths, out=bounds[1:])
        return bounds


#: Array fields of :class:`ClassifiedColumns` in declaration order —
#: the schema of its v5 cache banks (``warp_size`` is the only scalar
#: field and travels in the manifest metadata instead).
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

    The per-event counters mirror
    :class:`~repro.scalar.architectures.ProcessedEvent` field-for-field;
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

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All array fields by name (the v5 bank payload)."""
        return {name: getattr(self, name) for name in PROCESSED_ARRAY_FIELDS}

    @classmethod
    def from_arrays(
        cls, warp_size: int, arrays: dict[str, np.ndarray]
    ) -> "ProcessedColumns":
        """Rebuild from :meth:`as_arrays` output (mmap views welcome)."""
        return cls(
            warp_size=warp_size,
            **{name: arrays[name] for name in PROCESSED_ARRAY_FIELDS},
        )

    @classmethod
    def from_events(
        cls, processed: list[list], warp_size: int
    ) -> "ProcessedColumns":
        """Columnarize an event-engine result (the differential bridge).

        Walks :class:`~repro.scalar.architectures.ProcessedEvent`
        streams and packs them into the same layout the batch engine
        produces, so the two engines can be compared exactly with
        :func:`processed_columns_equal`.
        """
        count = sum(len(warp) for warp in processed)
        opcode_ids = np.empty(count, dtype=np.uint16)
        active_lanes = np.empty(count, dtype=np.int32)
        scalar_executed = np.empty(count, dtype=bool)
        lo_half = np.empty(count, dtype=bool)
        hi_half = np.empty(count, dtype=bool)
        exec_lanes = np.empty(count, dtype=np.int32)
        extra = np.empty(count, dtype=np.int32)
        compressor = np.empty(count, dtype=np.int32)
        decompressor = np.empty(count, dtype=np.int32)
        acc_offsets = np.zeros(count + 1, dtype=np.int64)

        kind_ids: list[int] = []
        registers: list[int] = []
        enc: list[int] = []
        enc_lo: list[int] = []
        enc_hi: list[int] = []
        half: list[bool] = []
        acc_masks: list[int] = []
        sidecar: list[bool] = []
        kind_to_id = ACCESS_KIND_TO_ID
        opcode_to_id = OPCODE_TO_ID

        position = 0
        for warp_events in processed:
            for item in warp_events:
                event = item.classified.event
                opcode_ids[position] = opcode_to_id[event.opcode]
                active_lanes[position] = event.active_lane_count()
                scalar_executed[position] = item.scalar_executed
                lo_half[position] = item.lo_half_scalar
                hi_half[position] = item.hi_half_scalar
                exec_lanes[position] = item.exec_lanes
                extra[position] = item.extra_instructions
                compressor[position] = item.compressor_ops
                decompressor[position] = item.decompressor_ops
                for access in item.rf_accesses:
                    kind_ids.append(kind_to_id[access.kind])
                    registers.append(access.register)
                    enc.append(access.enc)
                    enc_lo.append(access.enc_lo)
                    enc_hi.append(access.enc_hi)
                    half.append(access.half_compressed)
                    acc_masks.append(access.active_mask)
                    sidecar.append(access.sidecar)
                acc_offsets[position + 1] = len(kind_ids)
                position += 1

        return cls(
            warp_size=warp_size,
            warp_lengths=np.array(
                [len(warp) for warp in processed], dtype=np.int64
            ),
            opcode_ids=opcode_ids,
            category_codes=CATEGORY_CODE_BY_OPCODE[opcode_ids],
            active_lanes=active_lanes,
            scalar_executed=scalar_executed,
            lo_half_scalar=lo_half,
            hi_half_scalar=hi_half,
            exec_lanes=exec_lanes,
            extra_instructions=extra,
            compressor_ops=compressor,
            decompressor_ops=decompressor,
            acc_offsets=acc_offsets,
            acc_kind_ids=np.array(kind_ids, dtype=np.uint8),
            acc_registers=np.array(registers, dtype=np.int32),
            acc_enc=np.array(enc, dtype=np.int8),
            acc_enc_lo=np.array(enc_lo, dtype=np.int8),
            acc_enc_hi=np.array(enc_hi, dtype=np.int8),
            acc_half=np.array(half, dtype=bool),
            acc_masks=np.array(acc_masks, dtype=np.uint64),
            acc_sidecar=np.array(sidecar, dtype=bool),
        )


#: Array fields of :class:`ProcessedColumns` in declaration order — the
#: schema of its v5 cache banks.
PROCESSED_ARRAY_FIELDS = tuple(
    f.name for f in fields(ProcessedColumns) if f.name != "warp_size"
)


def _merge_warp_lengths(
    fragments: list[np.ndarray], continued: list[bool]
) -> np.ndarray:
    """Fold per-chunk warp-length tables back into whole-trace warps.

    ``continued[i]`` says fragment *i*'s first warp is the tail of
    fragment *i - 1*'s last warp (a chunk boundary cut it), so their
    lengths sum into one warp.
    """
    merged: list[int] = []
    for lengths, cont in zip(fragments, continued):
        items = lengths.tolist()
        if cont and merged and items:
            merged[-1] += items[0]
            items = items[1:]
        merged.extend(items)
    return np.array(merged, dtype=np.int64)


def _concat_offsets(tables: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-chunk offset tables into one running table."""
    parts = [np.zeros(1, dtype=np.int64)]
    base = 0
    for table in tables:
        parts.append(table[1:].astype(np.int64) + base)
        base += int(table[-1])
    return np.concatenate(parts)


def _concat_row_indexes(
    indexes: list[np.ndarray], row_counts: list[int]
) -> np.ndarray:
    """Concatenate per-chunk row-index columns, rebasing to the
    concatenated row matrix (``-1`` stays ``-1``)."""
    parts = []
    base = 0
    for index, rows in zip(indexes, row_counts):
        parts.append(np.where(index >= 0, index + base, -1).astype(np.int64))
        base += rows
    return (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    )


def concat_classified_columns(
    fragments: list[ClassifiedColumns], continued: list[bool]
) -> ClassifiedColumns:
    """Reassemble whole-trace classified columns from chunk fragments.

    ``fragments`` are per-chunk outputs in stream order; ``continued``
    flags each fragment whose first warp continues the previous
    fragment's last warp.  Per-event and flat per-source arrays simply
    concatenate; offset/row-index tables are rebased.  The differential
    suite uses this to compare a chunked run against the whole-trace
    engines array-for-array.
    """
    if not fragments:
        raise ValueError("concat_classified_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "masks", "active_lanes",
        "divergent", "blocks", "dst", "scalar_class_ids", "lo_half_exec",
        "hi_half_exec", "has_dst_enc", "needs_move", "dst_enc",
        "dst_enc_lo", "dst_enc_hi", "dst_is_scalar", "before_enc",
        "before_enc_lo", "before_enc_hi",
    )
    per_source = (
        "src_registers", "src_enc", "src_enc_lo", "src_enc_hi",
        "src_divergent", "src_scalar_for_read",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in per_event + per_source
    }
    warp_size = fragments[0].warp_size
    address_rows = [
        f.addresses for f in fragments if f.addresses.shape[0]
    ]
    return ClassifiedColumns(
        warp_size=warp_size,
        warp_lengths=_merge_warp_lengths(
            [f.warp_lengths for f in fragments], continued
        ),
        src_offsets=_concat_offsets([f.src_offsets for f in fragments]),
        addr_index=_concat_row_indexes(
            [f.addr_index for f in fragments],
            [int(f.addresses.shape[0]) for f in fragments],
        ),
        addresses=(
            np.concatenate(address_rows)
            if address_rows
            else np.empty((0, warp_size), dtype=np.uint32)
        ),
        **merged,
    )


def concat_processed_columns(
    fragments: list[ProcessedColumns], continued: list[bool]
) -> ProcessedColumns:
    """Reassemble whole-trace processed columns from chunk fragments
    (same contract as :func:`concat_classified_columns`)."""
    if not fragments:
        raise ValueError("concat_processed_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "active_lanes", "scalar_executed",
        "lo_half_scalar", "hi_half_scalar", "exec_lanes",
        "extra_instructions", "compressor_ops", "decompressor_ops",
    )
    per_access = (
        "acc_kind_ids", "acc_registers", "acc_enc", "acc_enc_lo",
        "acc_enc_hi", "acc_half", "acc_masks", "acc_sidecar",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in per_event + per_access
    }
    return ProcessedColumns(
        warp_size=fragments[0].warp_size,
        warp_lengths=_merge_warp_lengths(
            [f.warp_lengths for f in fragments], continued
        ),
        acc_offsets=_concat_offsets([f.acc_offsets for f in fragments]),
        **merged,
    )


def processed_columns_equal(a: ProcessedColumns, b: ProcessedColumns) -> bool:
    """Exact array-for-array equality of two processed-column sets."""
    return not processed_columns_diff(a, b)


def processed_columns_diff(a: ProcessedColumns, b: ProcessedColumns) -> list[str]:
    """Names of the fields on which two processed-column sets differ."""
    differing: list[str] = []
    if a.warp_size != b.warp_size:
        differing.append("warp_size")
    for name in (
        "warp_lengths",
        "opcode_ids",
        "category_codes",
        "active_lanes",
        "scalar_executed",
        "lo_half_scalar",
        "hi_half_scalar",
        "exec_lanes",
        "extra_instructions",
        "compressor_ops",
        "decompressor_ops",
        "acc_offsets",
        "acc_kind_ids",
        "acc_registers",
        "acc_enc",
        "acc_enc_lo",
        "acc_enc_hi",
        "acc_half",
        "acc_masks",
        "acc_sidecar",
    ):
        left = getattr(a, name)
        right = getattr(b, name)
        if left.shape != right.shape or not np.array_equal(left, right):
            differing.append(name)
    return differing
