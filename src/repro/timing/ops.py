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
:func:`build_timing_ops` is its per-event oracle: it lowers one warp's
:class:`~repro.scalar.architectures.ProcessedEvent` stream into
:class:`TimingOp` records.  :meth:`TimingOpTable.to_ops` and
:meth:`TimingOpTable.from_ops` convert exactly between the two forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.errors import TimingError
from repro.isa.opcodes import LONG_LATENCY_ALU, OpCategory, Opcode, is_store
from repro.regfile.access import ACCESS_KIND_TO_ID, WRITE_KIND_IDS
from repro.scalar.architectures import ProcessedEvent
from repro.scalar.columns import (
    BAR_OPCODE_ID,
    CATEGORY_TO_CODE,
    CODE_TO_CATEGORY,
    CTRL_CODE,
    MEM_CODE,
    SCALAR_RF_READ_ID,
    SFU_CODE,
    _concat_offsets,
    _merge_warp_lengths,
)
from repro.simt.grid import int_to_mask
from repro.simt.trace import ID_TO_OPCODE

#: Pseudo bank id for the prior-work single-bank scalar register file.
SCALAR_RF_BANK = -1

#: Bytes per coalesced memory segment.
SEGMENT_BYTES = 128


@dataclass(frozen=True)
class TimingOp:
    """One instruction as the timing model sees it.

    ``src_regs`` feeds the scoreboard; ``src_banks`` (same order, plus
    possibly :data:`SCALAR_RF_BANK`) feeds operand-collector bank
    arbitration.
    """

    category: OpCategory
    dst: int | None
    src_regs: tuple[int, ...]
    src_banks: tuple[int, ...]
    dispatch_cycles: int
    long_latency: bool
    is_store: bool
    mem_segments: tuple[int, ...] = field(default_factory=tuple)
    is_shared_mem: bool = False
    #: True for decompress-moves / scalar-RF spills the architecture
    #: inserted; they consume cycles and energy but are not counted as
    #: useful work when computing IPC.
    inserted: bool = False
    #: True for ``bar.sync``: the warp stalls at issue until every
    #: unfinished warp of its CTA arrives.
    is_barrier: bool = False


def _offsets(counts) -> np.ndarray:
    """``(n + 1,)`` running offsets of ``n`` per-row counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


#: Per-op columns of :class:`TimingOpTable`: concatenated as-is across
#: chunks (the offset tables and ``warp_lengths`` are rebased instead).
_PER_ROW_FIELDS = (
    "category_codes",
    "dst",
    "dispatch_cycles",
    "long_latency",
    "is_store",
    "is_shared_mem",
    "is_barrier",
    "inserted",
    "src_regs",
    "src_banks",
    "segments",
)


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

    def to_ops(self) -> list[list[TimingOp]]:
        """The same ops as per-warp :class:`TimingOp` lists."""
        regs = self.src_regs.tolist()
        banks = self.src_banks.tolist()
        src = self.src_offsets.tolist()
        segments = self.segments.tolist()
        seg = self.seg_offsets.tolist()
        ops = [
            TimingOp(
                category=CODE_TO_CATEGORY[code],
                dst=None if dst < 0 else dst,
                src_regs=tuple(regs[src[i] : src[i + 1]]),
                src_banks=tuple(banks[src[i] : src[i + 1]]),
                dispatch_cycles=dispatch,
                long_latency=long_latency,
                is_store=store,
                mem_segments=tuple(segments[seg[i] : seg[i + 1]]),
                is_shared_mem=shared,
                inserted=inserted,
                is_barrier=barrier,
            )
            for i, (
                code, dst, dispatch, long_latency, store, shared, inserted, barrier
            ) in enumerate(
                zip(
                    self.category_codes.tolist(),
                    self.dst.tolist(),
                    self.dispatch_cycles.tolist(),
                    self.long_latency.tolist(),
                    self.is_store.tolist(),
                    self.is_shared_mem.tolist(),
                    self.inserted.tolist(),
                    self.is_barrier.tolist(),
                )
            )
        ]
        bounds = self.warp_bounds().tolist()
        return [ops[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @classmethod
    def from_ops(cls, warp_ops: list[list[TimingOp]]) -> "TimingOpTable":
        """Pack per-warp :class:`TimingOp` lists (inverse of :meth:`to_ops`)."""
        ops = [op for warp in warp_ops for op in warp]
        if any(len(op.src_banks) != len(op.src_regs) for op in ops):
            raise TimingError("every TimingOp needs one bank per source register")
        return cls(
            warp_lengths=np.array([len(warp) for warp in warp_ops], dtype=np.int64),
            category_codes=np.array(
                [CATEGORY_TO_CODE[op.category] for op in ops], dtype=np.uint8
            ),
            dst=np.array(
                [-1 if op.dst is None else op.dst for op in ops], dtype=np.int32
            ),
            dispatch_cycles=np.array(
                [op.dispatch_cycles for op in ops], dtype=np.int32
            ),
            long_latency=np.array([op.long_latency for op in ops], dtype=bool),
            is_store=np.array([op.is_store for op in ops], dtype=bool),
            is_shared_mem=np.array([op.is_shared_mem for op in ops], dtype=bool),
            is_barrier=np.array([op.is_barrier for op in ops], dtype=bool),
            inserted=np.array([op.inserted for op in ops], dtype=bool),
            src_offsets=_offsets([len(op.src_regs) for op in ops]),
            src_regs=np.array([r for op in ops for r in op.src_regs], dtype=np.int32),
            src_banks=np.array([b for op in ops for b in op.src_banks], dtype=np.int32),
            seg_offsets=_offsets([len(op.mem_segments) for op in ops]),
            segments=np.array(
                [s for op in ops for s in op.mem_segments], dtype=np.int64
            ),
        )

    @classmethod
    def concat(
        cls, fragments: list["TimingOpTable"], continued: list[bool]
    ) -> "TimingOpTable":
        """Reassemble a whole-trace table from per-chunk tables.

        ``fragments`` come in stream order; ``continued[i]`` says
        fragment *i*'s first warp continues fragment *i - 1*'s last
        warp (a chunk boundary cut it), so their ops join into one
        warp.  Lowering is per event, so the result equals the table
        of the whole trace.
        """
        if not fragments:
            return cls.from_ops([])
        return cls(
            warp_lengths=_merge_warp_lengths(
                [f.warp_lengths for f in fragments], continued
            ),
            src_offsets=_concat_offsets([f.src_offsets for f in fragments]),
            seg_offsets=_concat_offsets([f.seg_offsets for f in fragments]),
            **{
                name: np.concatenate([getattr(f, name) for f in fragments])
                for name in _PER_ROW_FIELDS
            },
        )


def _bank_of(register: int, config: GpuConfig) -> int:
    return register % config.register_file_banks


def coalesce_addresses(
    addresses: np.ndarray,
    active_mask: int,
    warp_size: int,
    segment_bytes: int = SEGMENT_BYTES,
) -> tuple[int, ...]:
    """Unique memory segments touched by the active lanes of one access."""
    mask = int_to_mask(active_mask, warp_size)
    active = addresses[mask]
    if active.size == 0:
        return ()
    segments = np.unique(active // segment_bytes)
    return tuple(int(s) for s in segments)


#: Sorts after every real segment; marks an inactive lane.
_NO_SEGMENT = np.iinfo(np.int64).max


def coalesce_address_rows(
    addresses: np.ndarray,
    masks: np.ndarray,
    lowest_lane_only: np.ndarray,
    warp_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce many accesses at once; the batched :func:`coalesce_addresses`.

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


def _dispatch_cycles(
    item: ProcessedEvent, arch: ArchitectureConfig, config: GpuConfig
) -> int:
    """Cycles an instruction occupies its pipeline's dispatch port.

    With ``arch.scalar_fast_dispatch`` a scalar-executed instruction
    needs a single dispatch cycle (§6's "as low as only one cycle");
    the paper's evaluated configurations keep the normal occupancy and
    take only the energy benefit of clock-gated lanes.
    """
    category = item.classified.category
    if category is OpCategory.CTRL:
        return 1
    if arch.scalar_fast_dispatch:
        if item.scalar_executed:
            return 1
        if item.lo_half_scalar and item.hi_half_scalar:
            return 1  # two scalar halves co-issue on one SIMT pass
    if category is OpCategory.SFU:
        return config.sfu_dispatch_cycles
    return config.alu_dispatch_cycles


def build_timing_ops(
    warp_events: list[ProcessedEvent],
    arch: ArchitectureConfig,
    config: GpuConfig,
    warp_size: int,
) -> list[TimingOp]:
    """Lower one warp's processed events to timing ops, in order."""
    ops: list[TimingOp] = []
    for item in warp_events:
        event = item.classified.event
        category = event.category

        # Extra inserted instructions (decompress moves / scalar-RF
        # spills) execute as full-width ALU-pipe moves *before* the
        # triggering instruction.
        for _ in range(item.extra_instructions):
            move_regs = (event.dst,) if event.dst is not None else ()
            ops.append(
                TimingOp(
                    category=OpCategory.ALU,
                    dst=event.dst,
                    src_regs=move_regs,
                    src_banks=tuple(_bank_of(r, config) for r in move_regs),
                    dispatch_cycles=config.alu_dispatch_cycles,
                    long_latency=False,
                    is_store=False,
                    inserted=True,
                )
            )

        if event.opcode is Opcode.BAR:
            ops.append(
                TimingOp(
                    category=OpCategory.CTRL,
                    dst=None,
                    src_regs=(),
                    src_banks=(),
                    dispatch_cycles=1,
                    long_latency=False,
                    is_store=False,
                    is_barrier=True,
                )
            )
            continue

        src_regs = []
        src_banks = []
        for access in item.rf_accesses:
            if access.is_write:
                continue
            src_regs.append(access.register)
            if access.kind.value == "scalar_rf_read":
                src_banks.append(SCALAR_RF_BANK)
            else:
                src_banks.append(_bank_of(access.register, config))

        segments: tuple[int, ...] = ()
        shared = False
        if category is OpCategory.MEM and event.addresses is not None:
            shared = event.opcode.value.endswith(".shared")
            if item.scalar_executed:
                # All active lanes hit one address; one segment, read
                # from the lowest active lane (an inactive lane's
                # address register holds a stale value).
                mask = event.active_mask
                if mask:
                    lane = (mask & -mask).bit_length() - 1
                    segments = (int(event.addresses[lane]) // SEGMENT_BYTES,)
            else:
                segments = coalesce_addresses(
                    event.addresses, event.active_mask, warp_size
                )

        dispatch = _dispatch_cycles(item, arch, config)
        if category is OpCategory.MEM and not shared:
            dispatch = max(dispatch, len(segments))

        ops.append(
            TimingOp(
                category=category,
                dst=event.dst,
                src_regs=tuple(src_regs),
                src_banks=tuple(src_banks),
                dispatch_cycles=dispatch,
                long_latency=event.opcode in LONG_LATENCY_ALU,
                is_store=is_store(event.opcode),
                mem_segments=segments,
                is_shared_mem=shared,
            )
        )
    return ops


# ----------------------------------------------------------------------
# Columnar lowering.
# ----------------------------------------------------------------------
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


def build_timing_ops_columns(ccols, pcols, arch, config) -> TimingOpTable:
    """Lower a columnar processed trace to a :class:`TimingOpTable`.

    The columnar counterpart of :func:`build_timing_ops` over a
    (:class:`~repro.scalar.columns.ClassifiedColumns`,
    :class:`~repro.scalar.columns.ProcessedColumns`) pair, with no
    Python loop over events: dispatch cycles, read operands and opcode
    properties are whole-trace array operations, inserted moves expand
    with ``np.repeat``, and every memory access is coalesced in one
    :func:`coalesce_address_rows` pass.  ``to_ops()`` of the result
    equals the event path's op streams (the differential suite pins
    this).
    """
    count = pcols.num_events
    opcode_ids = pcols.opcode_ids
    codes = pcols.category_codes
    is_bar = opcode_ids == BAR_OPCODE_ID
    is_mem = codes == MEM_CODE

    # Dispatch cycles (vector form of _dispatch_cycles).
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
