"""Timing-level operations derived from processed trace events.

The SM timing models do not care about operand *values* — only about
categories, register numbers (for banks and the scoreboard), dispatch
occupancy and memory coalescing.  A processed trace lowers to one
:class:`TimingOpTable`: every warp's ops as flat columns, with the
extra decompress-move / scalar-RF-spill instructions the architecture
view requested inserted before their instruction and the
scalar-execution dispatch savings applied (a scalar SFU instruction
dispatches in 1 cycle instead of 8 — §6).

:func:`build_timing_ops_columns` is the production lowering: whole-trace
array operations over a (:class:`~repro.scalar.columns.ClassifiedColumns`,
:class:`~repro.scalar.columns.ProcessedColumns`) pair, memory
coalescing included (:func:`coalesce_address_rows`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from repro.isa.opcodes import LONG_LATENCY_ALU, OpCategory, is_store
from repro.regfile.access import ACCESS_KIND_TO_ID, WRITE_KIND_IDS
from repro.scalar.columns import (
    BAR_OPCODE_ID,
    CATEGORY_TO_CODE,
    CTRL_CODE,
    MEM_CODE,
    SCALAR_RF_READ_ID,
    SFU_CODE,
    _concat_offsets,
)
from repro.simt.trace import ID_TO_OPCODE

#: Pseudo bank id for the prior-work single-bank scalar register file.
SCALAR_RF_BANK = -1

#: Bytes per coalesced memory segment.
SEGMENT_BYTES = 128


def _offsets(counts) -> np.ndarray:
    """``(n + 1,)`` running offsets of ``n`` per-row counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


#: Columns of :class:`TimingOpTable` and their dtypes that concatenate
#: as-is across chunks (the two offset tables are rebased instead).
_CONCATENATED_FIELDS = {
    "warp_lengths": np.int64,
    "category_codes": np.uint8,
    "dst": np.int32,
    "dispatch_cycles": np.int32,
    "long_latency": bool,
    "is_store": bool,
    "is_shared_mem": bool,
    "is_barrier": bool,
    "inserted": bool,
    "src_regs": np.int32,
    "src_banks": np.int32,
    "segments": np.int64,
}


@dataclass(frozen=True, eq=False)
class TimingOpTable:
    """Every warp's timing ops as flat columns, one row per op.

    Rows are warp-major: warp *w* owns the next ``warp_lengths[w]``
    rows, in issue order.  An inserted move comes before the
    instruction that requested it, and a ``bar.sync`` is a row of its
    own.  Two ragged tables hang off the rows: op *i*'s source
    registers are ``src_regs[src_offsets[i]:src_offsets[i + 1]]``
    (their banks, in the same order, in ``src_banks``) and its
    coalesced memory segments are
    ``segments[seg_offsets[i]:seg_offsets[i + 1]]``, ascending.
    """

    warp_lengths: np.ndarray  # (n_warps,) int64
    category_codes: np.ndarray  # (n,) uint8, CATEGORY_TO_CODE
    dst: np.ndarray  # (n,) int32, -1 = no destination register
    dispatch_cycles: np.ndarray  # (n,) int32
    long_latency: np.ndarray  # (n,) bool
    is_store: np.ndarray  # (n,) bool
    is_shared_mem: np.ndarray  # (n,) bool
    is_barrier: np.ndarray  # (n,) bool
    inserted: np.ndarray  # (n,) bool
    src_offsets: np.ndarray  # (n + 1,) int64
    src_regs: np.ndarray  # int32
    src_banks: np.ndarray  # int32, SCALAR_RF_BANK for the scalar RF
    seg_offsets: np.ndarray  # (n + 1,) int64
    segments: np.ndarray  # int64

    @property
    def num_ops(self) -> int:
        return int(self.category_codes.shape[0])

    def warp_bounds(self) -> np.ndarray:
        """``(n_warps + 1,)`` row offsets of each warp's ops."""
        return _offsets(self.warp_lengths)

    def digest(self) -> str:
        """Content hash of every column (name, dtype, shape and bytes).

        Two tables with one digest are the same SM input, so a memo
        keyed on it (with the GPU configuration, extra latency and
        warps per CTA) can reuse one simulation for both.
        """
        hasher = hashlib.blake2b(digest_size=20)
        for column in fields(self):
            values = np.ascontiguousarray(getattr(self, column.name))
            hasher.update(f"{column.name}:{values.dtype.str}:{values.shape};".encode())
            hasher.update(values)
        return hasher.hexdigest()

    @classmethod
    def concat(cls, fragments: list["TimingOpTable"]) -> "TimingOpTable":
        """Reassemble a whole-trace table from per-chunk tables.

        ``fragments`` come in stream order, each the table of a run of
        whole warps.  Lowering is per event, so the result equals the
        table of the whole trace; no fragments make the empty table.
        """
        return cls(
            src_offsets=_concat_offsets([f.src_offsets for f in fragments]),
            seg_offsets=_concat_offsets([f.seg_offsets for f in fragments]),
            **{
                name: np.concatenate(
                    [getattr(f, name) for f in fragments] or [np.zeros(0, dtype)]
                )
                for name, dtype in _CONCATENATED_FIELDS.items()
            },
        )


#: Sorts after every real segment; marks an inactive lane.
_NO_SEGMENT = np.iinfo(np.int64).max


def coalesce_address_rows(
    addresses: np.ndarray,
    masks: np.ndarray,
    lowest_lane_only: np.ndarray,
    warp_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique memory segments touched by each of many accesses.

    Row *r* of ``addresses`` (one address per lane) is an access by the
    lanes set in ``masks[r]``; where ``lowest_lane_only[r]`` is set only
    the lowest active lane counts (a scalar-executed access, whose
    active lanes share one address).  Returns ``(counts, segments)``:
    row *r*'s unique segments, ascending as :func:`np.unique` gives
    them, are the next ``counts[r]`` entries of ``segments``.
    """
    lanes = np.arange(warp_size, dtype=np.uint64)
    active = ((masks.astype(np.uint64)[:, None] >> lanes) & np.uint64(1)).astype(bool)
    if lowest_lane_only.any():
        rows = np.arange(active.shape[0])
        lowest = active.argmax(axis=1)
        only_lowest = np.zeros_like(active)
        only_lowest[rows, lowest] = active[rows, lowest]
        active = np.where(lowest_lane_only[:, None], only_lowest, active)
    segments = np.where(
        active, addresses.astype(np.int64) // SEGMENT_BYTES, _NO_SEGMENT
    )
    segments.sort(axis=1)
    first = segments != _NO_SEGMENT
    first[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return first.sum(axis=1), segments[first]


def _opcode_flags() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(long-latency ALU, store, shared-memory) flags per opcode id."""
    size = len(ID_TO_OPCODE)
    long_latency = np.zeros(size, dtype=bool)
    stores = np.zeros(size, dtype=bool)
    shared = np.zeros(size, dtype=bool)
    for opcode_id, opcode in ID_TO_OPCODE.items():
        long_latency[opcode_id] = opcode in LONG_LATENCY_ALU
        stores[opcode_id] = is_store(opcode)
        shared[opcode_id] = opcode.value.endswith(".shared")
    return long_latency, stores, shared


_LONG_LATENCY_BY_OPCODE, _STORE_BY_OPCODE, _SHARED_BY_OPCODE = _opcode_flags()
_IS_WRITE_KIND = np.zeros(max(ACCESS_KIND_TO_ID.values()) + 1, dtype=bool)
_IS_WRITE_KIND[list(WRITE_KIND_IDS)] = True
_ALU_CODE = CATEGORY_TO_CODE[OpCategory.ALU]


def lowering_key(config) -> tuple[int, int, int]:
    """The :class:`~repro.config.GpuConfig` values
    :func:`build_timing_ops_columns` reads.

    Two configurations with one key lower a pair to one table, so a
    write-back latency sweep (which leaves the key alone) reuses it.
    """
    return (
        config.alu_dispatch_cycles,
        config.sfu_dispatch_cycles,
        config.register_file_banks,
    )


def build_timing_ops_columns(ccols, pcols, arch, config) -> TimingOpTable:
    """Lower a columnar processed trace to a :class:`TimingOpTable`.

    Runs over a (:class:`~repro.scalar.columns.ClassifiedColumns`,
    :class:`~repro.scalar.columns.ProcessedColumns`) pair with no
    Python loop over events: dispatch cycles, read operands and opcode
    properties are whole-trace array operations, inserted moves expand
    with ``np.repeat``, and every memory access is coalesced in one
    :func:`coalesce_address_rows` pass.  The differential suite pins
    the result to the per-event lowering in ``tests/reference``.
    """
    count = pcols.num_events
    opcode_ids = pcols.opcode_ids
    codes = pcols.category_codes
    is_bar = opcode_ids == BAR_OPCODE_ID
    is_mem = codes == MEM_CODE

    # Dispatch cycles.  With ``arch.scalar_fast_dispatch`` a scalar
    # instruction, or two scalar halves co-issued on one SIMT pass,
    # dispatches in one cycle (§6's "as low as only one cycle"); the
    # paper's evaluated configurations keep the normal occupancy.
    dispatch = np.where(
        codes == SFU_CODE, config.sfu_dispatch_cycles, config.alu_dispatch_cycles
    ).astype(np.int32)
    if arch.scalar_fast_dispatch:
        dispatch[
            pcols.scalar_executed | (pcols.lo_half_scalar & pcols.hi_half_scalar)
        ] = 1
    dispatch[codes == CTRL_CODE] = 1

    # Coalesce every memory access at once; a shared-memory access
    # keeps its dispatch, a global one occupies a cycle per segment.
    accesses = np.flatnonzero(is_mem & (ccols.addr_index >= 0))
    access_segments, segments = coalesce_address_rows(
        ccols.addresses[ccols.addr_index[accesses]],
        ccols.masks[accesses],
        pcols.scalar_executed[accesses],
        ccols.warp_size,
    )
    shared = np.zeros(count, dtype=bool)
    shared[accesses] = _SHARED_BY_OPCODE[opcode_ids[accesses]]
    segment_counts = np.zeros(count, dtype=np.int64)
    segment_counts[accesses] = access_segments
    global_mem = is_mem & ~shared
    dispatch[global_mem] = np.maximum(dispatch[global_mem], segment_counts[global_mem])

    # Rows: each event's inserted moves, then the event itself.
    per_event = pcols.extra_instructions.astype(np.int64) + 1
    row_bounds = _offsets(per_event)
    main = row_bounds[1:] - 1
    total = int(row_bounds[-1])
    inserted = np.ones(total, dtype=bool)
    inserted[main] = False
    dst = ccols.dst[np.repeat(np.arange(count), per_event)]
    dst[main[is_bar]] = -1

    def per_row(fill, values, dtype) -> np.ndarray:
        column = np.full(total, fill, dtype=dtype)
        column[main] = values
        return column

    # Sources: a move reads its destination, an instruction its RF
    # read accesses in emission order, a barrier nothing.
    is_read = ~_IS_WRITE_KIND[pcols.acc_kind_ids]
    read_running = np.zeros(pcols.num_accesses + 1, dtype=np.int64)
    np.cumsum(is_read, out=read_running[1:])
    read_offsets = read_running[pcols.acc_offsets]
    read_counts = np.diff(read_offsets)
    read_regs = pcols.acc_registers[is_read]
    read_banks = np.where(
        pcols.acc_kind_ids[is_read] == SCALAR_RF_READ_ID,
        SCALAR_RF_BANK,
        read_regs % config.register_file_banks,
    )
    moves = inserted & (dst >= 0)
    src_offsets = _offsets(
        per_row(0, np.where(is_bar, 0, read_counts), np.int64) + moves
    )
    src_regs = np.empty(int(src_offsets[-1]), dtype=np.int32)
    src_banks = np.empty_like(src_regs)
    move_rows = np.flatnonzero(moves)
    src_regs[src_offsets[move_rows]] = dst[move_rows]
    src_banks[src_offsets[move_rows]] = dst[move_rows] % config.register_file_banks
    read_event = np.repeat(np.arange(count), read_counts)
    kept = ~is_bar[read_event]
    slots = (
        src_offsets[main[read_event]]
        + np.arange(read_event.shape[0])
        - read_offsets[read_event]
    )[kept]
    src_regs[slots] = read_regs[kept]
    src_banks[slots] = read_banks[kept]

    return TimingOpTable(
        warp_lengths=np.diff(row_bounds[_offsets(pcols.warp_lengths)]),
        category_codes=per_row(_ALU_CODE, codes, np.uint8),
        dst=dst,
        dispatch_cycles=per_row(config.alu_dispatch_cycles, dispatch, np.int32),
        long_latency=per_row(False, _LONG_LATENCY_BY_OPCODE[opcode_ids], bool),
        is_store=per_row(False, _STORE_BY_OPCODE[opcode_ids], bool),
        is_shared_mem=per_row(False, shared, bool),
        is_barrier=per_row(False, is_bar, bool),
        inserted=inserted,
        src_offsets=src_offsets,
        src_regs=src_regs,
        src_banks=src_banks,
        seg_offsets=_offsets(per_row(0, segment_counts, np.int64)),
        segments=segments,
    )
