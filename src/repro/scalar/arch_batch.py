"""Vectorized per-architecture interpretation over classified columns.

The classifier computes what the hardware *could* know; interpretation
decides what a concrete architecture *does* with it: which
instructions execute as scalar, how many execution lanes burn energy,
what shape every register-file access takes, and which extra
decompress/spill instructions get inserted.  Almost every decision is
a pure function of the classification outputs and the architecture
flags, so this module computes it as whole-trace array kernels over
:class:`~repro.scalar.columns.ClassifiedColumns`, scattering
register-file accesses straight into the flat table of a
:class:`~repro.scalar.columns.ProcessedColumns`.

Three interpretation regimes exist, chosen in one place
(:func:`process_columns_chunk`):

* **compression-backed** (G-Scalar variants): fully vectorized; the
  per-event access block is laid out ``[sources…, decompress-move
  read/write, final write]`` with positions computed by the
  repeat-offset idiom.
* **dedicated scalar RF** (prior-work ALU-scalar): the
  :class:`~repro.regfile.scalar_rf.ScalarRegisterFile` residency walk
  is inherently sequential (LRU eviction feeds back into later
  decisions), so this path keeps a slim Python loop over the columns
  driving a *real* ``ScalarRegisterFile``.  The walk reads only
  per-warp columns, and a kernel's warps mostly repeat a few of them,
  so it walks each distinct warp key
  (:func:`~repro.scalar.columns.warp_keys`) once and gathers every
  warp's rows from its key's walk.
* **uncompressed** (the baseline, the statically-compressed RF and any
  uncompressed ablation): trivially vectorized, in the compressed
  regime's block layout without moves.  Plain, or with proven widths:
  a register the static width table proves narrow is accessed
  compressed, and the baseline's table proves no register narrow.

The differential suite pins :func:`process_columns` array for array to
the per-event ``ArchitectureView`` reference in ``tests/reference``,
across every workload and every architecture.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.config import ArchitectureConfig, ScalarMode
from repro.errors import ConfigError
from repro.regfile.scalar_rf import ScalarRegisterFile
from repro.scalar.columns import (
    COMPRESSED_READ_ID,
    COMPRESSED_WRITE_ID,
    CTRL_CODE,
    FULL_READ_ID,
    FULL_WRITE_ID,
    PARTIAL_WRITE_ID,
    SCALAR_READ_ID,
    SCALAR_RF_READ_ID,
    SCALAR_RF_WRITE_ID,
    SCALAR_WRITE_ID,
    ClassifiedColumns,
    ProcessedColumns,
    warp_keys,
)
from repro.scalar.eligibility import ID_TO_SCALAR_CLASS, SCALAR_CLASS_TO_ID, ScalarClass

_ALU_SCALAR_ID = SCALAR_CLASS_TO_ID[ScalarClass.ALU_SCALAR]
_HALF_SCALAR_ID = SCALAR_CLASS_TO_ID[ScalarClass.HALF_SCALAR]


def _arch_accepts(arch: ArchitectureConfig, scalar_class: ScalarClass) -> bool:
    """Does this architecture scalarize instructions of this class?"""
    if scalar_class is ScalarClass.ALU_SCALAR:
        return arch.scalar_mode is not ScalarMode.NONE
    if scalar_class in (ScalarClass.SFU_SCALAR, ScalarClass.MEM_SCALAR):
        return arch.scalar_mode is ScalarMode.ALL_PIPELINES
    if scalar_class is ScalarClass.HALF_SCALAR:
        return arch.half_warp_scalar
    if scalar_class is ScalarClass.DIVERGENT_SCALAR:
        return arch.divergent_scalar
    return False


def _accepts_lut(arch: ArchitectureConfig) -> np.ndarray:
    """Boolean acceptance per scalar-class id (vector form of
    :func:`_arch_accepts`)."""
    lut = np.zeros(len(ID_TO_SCALAR_CLASS), dtype=bool)
    for class_id, scalar_class in ID_TO_SCALAR_CLASS.items():
        lut[class_id] = _arch_accepts(arch, scalar_class)
    return lut


def process_columns(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    move_elision=None,
    static_widths=None,
) -> ProcessedColumns:
    """Interpret a classified column set for one architecture: the
    one-chunk case of :func:`process_columns_chunk` (a fresh
    :class:`ArchCarry`, no split warps)."""
    return process_columns_chunk(
        ccols, arch, ArchCarry(), move_elision=move_elision, static_widths=static_widths
    )


class ArchCarry:
    """Per-warp interpretation state threaded between trace chunks.

    Of the three interpretation regimes only the dedicated-scalar-RF
    walk is stateful (LRU residency feeds back into later decisions);
    the carry holds each split warp's live
    :class:`~repro.regfile.scalar_rf.ScalarRegisterFile`, keyed by
    global warp index.  Completed warps are dropped eagerly, so at most
    one entry lives between chunks per stream.
    """

    def __init__(self) -> None:
        self.scalar_rfs: dict[int, ScalarRegisterFile] = {}


def process_columns_chunk(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    carry: ArchCarry,
    warp_start: int = 0,
    first_warp_continued: bool = False,
    last_warp_continues: bool = False,
    move_elision=None,
    static_widths=None,
) -> ProcessedColumns:
    """Interpret one chunk's classified columns for one architecture.

    This is where the regime is chosen.  The compressed and
    uncompressed regimes are pure functions of the chunk's rows; the
    dedicated-scalar-RF walk resumes split warps from ``carry`` so
    concatenated chunk outputs match the whole-trace interpretation
    bit-for-bit.  ``move_elision`` optionally applies the §3.3
    compiler-assisted decompress-move elision (compression-backed
    architectures only, same as the event engine); ``static_widths`` is
    the per-register proven ``enc`` table, required by and read only
    for the static-compression architecture.
    """
    if ccols.warp_size < 1:
        raise ConfigError(f"warp_size must be >= 1, got {ccols.warp_size}")
    if arch.register_compression:
        return _process_compressed(ccols, arch, move_elision)
    if arch.dedicated_scalar_rf:
        return _process_scalar_rf(
            ccols, arch, carry, warp_start, first_warp_continued, last_warp_continues
        )
    if not arch.static_compression:
        static_widths = None
    elif static_widths is None:
        raise ConfigError(
            f"{arch.name}: static compression needs the kernel's per-register "
            "guaranteed widths (analyze_widths(...).register_enc)"
        )
    return _process_uncompressed(ccols, arch, static_widths)


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------
def _exec_lanes(
    ccols: ClassifiedColumns,
    scalar_executed: np.ndarray,
    lo_half: np.ndarray,
    hi_half: np.ndarray,
) -> np.ndarray:
    """Vector form of ``ArchitectureView._exec_lanes``.

    Precedence (ctrl > scalar > half > active lanes) is realized by
    assigning in reverse order.
    """
    half_lanes = ccols.warp_size // 2
    lanes = ccols.active_lanes.astype(np.int32, copy=True)
    half_rows = lo_half | hi_half
    if half_rows.any():
        half_count = np.where(lo_half, 1, half_lanes) + np.where(
            hi_half, 1, half_lanes
        )
        lanes[half_rows] = half_count[half_rows].astype(np.int32)
    lanes[scalar_executed] = 1
    lanes[ccols.category_codes == CTRL_CODE] = 0
    return lanes


def _segment_sums(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat 0/1 array under an offset table.

    Uses the cumsum-difference idiom rather than ``np.add.reduceat``,
    whose empty-segment semantics (returning ``a[idx]``) are wrong for
    zero-source events.
    """
    running = np.zeros(len(flags) + 1, dtype=np.int64)
    np.cumsum(flags, out=running[1:])
    return running[offsets[1:]] - running[offsets[:-1]]


def _effective_moves(ccols: ClassifiedColumns, move_elision) -> np.ndarray:
    """Decompress-move flags after optional §3.3 elision."""
    move = ccols.needs_move & ccols.has_dst_enc
    if move_elision is not None and move.any():
        blocks = ccols.blocks
        dst = ccols.dst
        elidable = move_elision.move_elidable
        for index in np.flatnonzero(move):
            register = int(dst[index])
            if register >= 0 and elidable(int(blocks[index]), register):
                move[index] = False
    return move


class _Layout(NamedTuple):
    """Where each event's access block ``[sources…, move read/write,
    final write]`` lands in the flat access table, and the register
    each row accesses."""

    offsets: np.ndarray  # (n + 1,): each block's first row, then the total
    src_rows: np.ndarray  # the row of each source read
    moves: np.ndarray  # events with a decompress move...
    move_rows: np.ndarray  # ...and its read's row (the write follows)
    writes: np.ndarray  # events with a destination write...
    write_rows: np.ndarray  # ...and its row, the block's last
    registers: np.ndarray  # per row: the register accessed


def _access_layout(ccols: ClassifiedColumns, move: np.ndarray | None) -> _Layout:
    """Lay the access blocks out; ``move`` flags the events with a
    decompress move (``None``: no event has one)."""
    if move is None:
        move = np.zeros(ccols.num_events, dtype=bool)
    src_offsets = ccols.src_offsets
    src_counts = np.diff(src_offsets)
    counts = src_counts + ccols.has_dst_enc + 2 * move
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Event i's sources land at offsets[i] + k.
    src_rows = np.repeat(offsets[:-1] - src_offsets[:-1], src_counts) + np.arange(
        int(src_offsets[-1]), dtype=np.int64
    )
    moves = np.flatnonzero(move)
    move_rows = offsets[moves] + src_counts[moves]
    writes = np.flatnonzero(ccols.has_dst_enc)
    write_rows = offsets[writes + 1] - 1
    registers = np.empty(int(offsets[-1]), dtype=np.int32)
    registers[src_rows] = ccols.src_registers
    registers[move_rows] = registers[move_rows + 1] = ccols.dst[moves]
    registers[write_rows] = ccols.dst[writes]
    return _Layout(offsets, src_rows, moves, move_rows, writes, write_rows, registers)


#: The columns a regime may leave out (all zero) and their dtypes; the
#: ``acc_`` columns have one row per access, the others one per event.
_ZERO_COLUMNS = {
    "lo_half_scalar": bool,
    "hi_half_scalar": bool,
    "extra_instructions": np.int32,
    "compressor_ops": np.int32,
    "decompressor_ops": np.int32,
    "acc_enc": np.int8,
    "acc_enc_lo": np.int8,
    "acc_enc_hi": np.int8,
    "acc_half": bool,
    "acc_sidecar": bool,
}


def _processed(
    ccols: ClassifiedColumns,
    scalar_executed: np.ndarray,
    acc_offsets: np.ndarray,
    acc_kind_ids: np.ndarray,
    acc_registers: np.ndarray,
    **columns: np.ndarray,
) -> ProcessedColumns:
    """Assemble one regime's :class:`ProcessedColumns`; every column
    of :data:`_ZERO_COLUMNS` not in ``columns`` is zero.  In every
    regime a partial write is its event's last access, and only it
    carries a mask: the event's."""
    for name, dtype in _ZERO_COLUMNS.items():
        if name not in columns:
            rows = len(acc_kind_ids) if name.startswith("acc_") else ccols.num_events
            columns[name] = np.zeros(rows, dtype=dtype)
    acc_masks = np.zeros(len(acc_kind_ids), dtype=np.uint64)
    partial = np.flatnonzero(ccols.has_dst_enc & ccols.divergent)
    acc_masks[acc_offsets[partial + 1] - 1] = ccols.masks[partial]
    return ProcessedColumns(
        warp_size=ccols.warp_size,
        warp_lengths=ccols.warp_lengths,
        opcode_ids=ccols.opcode_ids,
        category_codes=ccols.category_codes,
        active_lanes=ccols.active_lanes,
        scalar_executed=scalar_executed,
        exec_lanes=_exec_lanes(
            ccols, scalar_executed, columns["lo_half_scalar"], columns["hi_half_scalar"]
        ),
        acc_offsets=acc_offsets,
        acc_kind_ids=acc_kind_ids,
        acc_registers=acc_registers,
        acc_masks=acc_masks,
        **columns,
    )


# ----------------------------------------------------------------------
# Compression-backed register file (G-Scalar variants).
# ----------------------------------------------------------------------
def _process_compressed(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    move_elision,
) -> ProcessedColumns:
    accepts = _accepts_lut(arch)[ccols.scalar_class_ids]
    scalar_executed = accepts & (ccols.scalar_class_ids != _HALF_SCALAR_ID)
    lo_half = accepts & ccols.lo_half_exec
    hi_half = accepts & ccols.hi_half_exec
    half_compression = arch.half_register_compression

    # Per-source access rows ------------------------------------------------
    src_divergent = ccols.src_divergent
    src_scalar = ccols.src_scalar_for_read
    compressed_src = ~src_divergent & ~src_scalar
    decomp_src = compressed_src & (
        (ccols.src_enc > 0)
        | (half_compression & ((ccols.src_enc_lo > 0) | (ccols.src_enc_hi > 0)))
    )
    decompressor = _segment_sums(decomp_src, ccols.src_offsets).astype(np.int32)

    # Event-level structure -------------------------------------------------
    move = _effective_moves(ccols, move_elision)
    extra = move.astype(np.int32)
    decompressor += extra
    # Every write passes the compressor but a scalar-executed one of a
    # scalar value, which the scalar pipe already knows is scalar.
    compressor = (
        ccols.has_dst_enc & ~(~ccols.divergent & ccols.dst_is_scalar & scalar_executed)
    ).astype(np.int32)

    layout = _access_layout(ccols, move)
    total = int(layout.offsets[-1])
    kind_ids = np.empty(total, dtype=np.uint8)
    enc = np.zeros(total, dtype=np.int8)
    enc_lo = np.zeros(total, dtype=np.int8)
    enc_hi = np.zeros(total, dtype=np.int8)
    half = np.zeros(total, dtype=bool)

    # Scatter sources.
    rows = layout.src_rows
    kind_ids[rows] = np.where(
        src_divergent,
        FULL_READ_ID,
        np.where(src_scalar, SCALAR_READ_ID, COMPRESSED_READ_ID),
    )
    enc[rows] = np.where(src_divergent, 0, ccols.src_enc)
    enc_lo[rows] = np.where(compressed_src, ccols.src_enc_lo, 0)
    enc_hi[rows] = np.where(compressed_src, ccols.src_enc_hi, 0)
    half[rows] = compressed_src & half_compression

    # Scatter decompress-move pairs (compressed read-back + full write).
    moves, rows = layout.moves, layout.move_rows
    kind_ids[rows] = COMPRESSED_READ_ID
    kind_ids[rows + 1] = FULL_WRITE_ID
    enc[rows] = ccols.before_enc[moves]
    enc_lo[rows] = ccols.before_enc_lo[moves]
    enc_hi[rows] = ccols.before_enc_hi[moves]
    half[rows] = half_compression

    # Scatter the final destination write.
    writes, rows = layout.writes, layout.write_rows
    div_w = ccols.divergent[writes]
    scalar_w = ~div_w & ccols.dst_is_scalar[writes]
    other_w = ~div_w & ~scalar_w
    kind_ids[rows] = np.where(
        div_w,
        PARTIAL_WRITE_ID,
        np.where(scalar_w, SCALAR_WRITE_ID, COMPRESSED_WRITE_ID),
    )
    enc[rows] = np.where(div_w, 0, np.where(scalar_w, 4, ccols.dst_enc[writes]))
    enc_lo[rows] = np.where(other_w, ccols.dst_enc_lo[writes], 0)
    enc_hi[rows] = np.where(other_w, ccols.dst_enc_hi[writes], 0)
    half[rows] = other_w & half_compression

    return _processed(
        ccols,
        scalar_executed,
        layout.offsets,
        kind_ids,
        layout.registers,
        lo_half_scalar=lo_half,
        hi_half_scalar=hi_half,
        extra_instructions=extra,
        compressor_ops=compressor,
        decompressor_ops=decompressor,
        acc_enc=enc,
        acc_enc_lo=enc_lo,
        acc_enc_hi=enc_hi,
        acc_half=half,
        # Every compressed-path access touches the BVR/EBR sidecar.
        acc_sidecar=np.ones(total, dtype=bool),
    )


# ----------------------------------------------------------------------
# Uncompressed register file (baseline, static compression, ablations).
# ----------------------------------------------------------------------
def _process_uncompressed(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    static_widths,
) -> ProcessedColumns:
    """Vector form of ``ArchitectureView._process_uncompressed`` without
    a scalar RF, and of ``_process_static_compressed``.

    ``static_widths`` is the per-register proven ``enc`` table (``None``
    proves no register narrow).  Accesses of a proven-narrow register
    are sidecar-less compressed accesses, plus a decompressor tick per
    compressed read.  Accepted ``ALU_SCALAR`` instructions execute
    scalar; the baseline and static compression accept no class.
    """
    class_ids = ccols.scalar_class_ids
    scalar_executed = _accepts_lut(arch)[class_ids] & (class_ids == _ALU_SCALAR_ID)
    layout = _access_layout(ccols, None)
    writes = layout.writes
    if static_widths is None:
        src_enc = np.zeros(len(ccols.src_registers), dtype=np.int8)
        dst_enc = np.zeros(len(writes), dtype=np.int8)
    else:
        widths = np.asarray(static_widths, dtype=np.int8)
        src_enc = widths[ccols.src_registers]
        dst_enc = widths[ccols.dst[writes]]
    compressed_src = src_enc > 0
    decompressor = _segment_sums(compressed_src, ccols.src_offsets).astype(np.int32)

    total = int(layout.offsets[-1])
    kind_ids = np.empty(total, dtype=np.uint8)
    enc = np.zeros(total, dtype=np.int8)

    rows = layout.src_rows
    kind_ids[rows] = np.where(compressed_src, COMPRESSED_READ_ID, FULL_READ_ID)
    enc[rows] = src_enc  # zero wherever the read is full

    rows = layout.write_rows
    div_w = ccols.divergent[writes]
    kind_ids[rows] = np.where(
        div_w,
        PARTIAL_WRITE_ID,
        np.where(dst_enc > 0, COMPRESSED_WRITE_ID, FULL_WRITE_ID),
    )
    enc[rows] = np.where(div_w, 0, dst_enc)

    return _processed(
        ccols,
        scalar_executed,
        layout.offsets,
        kind_ids,
        layout.registers,
        decompressor_ops=decompressor,
        acc_enc=enc,
    )


# ----------------------------------------------------------------------
# Dedicated scalar RF (prior-work ALU-scalar): sequential sidecar walk.
# ----------------------------------------------------------------------
def _process_scalar_rf(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    carry: ArchCarry,
    warp_start: int,
    first_warp_continued: bool,
    last_warp_continues: bool,
) -> ProcessedColumns:
    """Sequential walk driving a real
    :class:`~repro.regfile.scalar_rf.ScalarRegisterFile`, once per
    distinct warp.

    LRU residency/eviction feeds back into later scalar-execution and
    access-kind decisions, so there is no closed-form vectorization;
    mirroring ``ArchitectureView._process_uncompressed`` op-for-op
    (including the resident-check-before-read ordering) keeps the walk
    bit-identical to the event engine.  The walk reads only per-warp
    columns (the scalar-execution flag, the destination columns and
    the source registers), and warps that agree on them walk alike:
    each distinct :func:`~repro.scalar.columns.warp_keys` key is walked
    once on a fresh register file, and every warp gathers its rows from
    its key's walk.  Masks reach only the partial writes, which take
    each warp's own.

    ``carry`` resumes a boundary-split warp's register file from the
    previous chunk and parks it again for the next one; such a warp is
    walked on its own, never shared.
    """
    class_ids = ccols.scalar_class_ids
    has_dst = ccols.has_dst_enc
    divergent = ccols.divergent
    src_offsets = ccols.src_offsets
    # The per-row columns the walk reads; with the sources, its key.
    walked = (
        _accepts_lut(arch)[class_ids] & (class_ids == _ALU_SCALAR_ID),
        has_dst,
        divergent,
        ccols.dst_is_scalar,
        ccols.dst,
    )
    bounds = ccols.warp_bounds()
    starts = bounds.tolist()
    num_warps = len(starts) - 1
    keys = warp_keys(walked, src_offsets, (ccols.src_registers,), starts)
    resumed = first_warp_continued and num_warps > 0
    parked = last_warp_continues and num_warps > 0
    if resumed:
        keys[0] = ("split", 0)
    if parked:
        keys[-1] = ("split", num_warps - 1)

    # Each walk appends its rows to one template; walk k's rows start
    # at template event event_bases[k].
    walks: dict[tuple, int] = {}
    event_bases: list[int] = []
    executed: list[bool] = []
    extra: list[int] = []
    access_ends: list[int] = []
    kinds: list[int] = []
    registers: list[int] = []
    template = (executed, extra, access_ends, kinds, registers)
    for warp, key in enumerate(keys):
        if key in walks:
            continue
        walks[key] = len(event_bases)
        event_bases.append(len(executed))
        scalar_rf = None
        if resumed and warp == 0:
            scalar_rf = carry.scalar_rfs.pop(warp_start, None)
        if scalar_rf is None:
            scalar_rf = ScalarRegisterFile()
        first, end = starts[warp], starts[warp + 1]
        lo, hi = int(src_offsets[first]), int(src_offsets[end])
        _walk(
            scalar_rf,
            [column[first:end].tolist() for column in walked],
            (src_offsets[first : end + 1] - lo).tolist(),
            ccols.src_registers[lo:hi].tolist(),
            template,
        )
        if parked and warp == num_warps - 1:
            carry.scalar_rfs[warp_start + warp] = scalar_rf

    # Gather every warp's rows from its walk's template rows.
    count = ccols.num_events
    template_ends = np.zeros(len(access_ends) + 1, dtype=np.int64)
    template_ends[1:] = access_ends
    walk_of = np.array([walks[key] for key in keys], dtype=np.int64)
    base = np.array(event_bases, dtype=np.int64)[walk_of]
    event_rows = np.repeat(base - bounds[:-1], ccols.warp_lengths) + np.arange(count)
    acc_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.diff(template_ends)[event_rows], out=acc_offsets[1:])
    total = int(acc_offsets[-1])
    warp_accesses = acc_offsets[bounds]
    access_rows = np.repeat(
        template_ends[base] - warp_accesses[:-1], np.diff(warp_accesses)
    ) + np.arange(total)
    scalar_executed = np.array(executed, dtype=bool)[event_rows]

    return _processed(
        ccols,
        scalar_executed,
        acc_offsets,
        np.array(kinds, dtype=np.uint8)[access_rows],
        np.array(registers, dtype=np.int32)[access_rows],
        extra_instructions=np.array(extra, dtype=np.int32)[event_rows],
        compressor_ops=has_dst.astype(np.int32),
    )


def _walk(
    scalar_rf: ScalarRegisterFile,
    rows: list[list],
    src_offsets: list[int],
    sources: list[int],
    template: tuple[list, ...],
) -> None:
    """Walk one warp's rows through ``scalar_rf``.

    ``rows`` holds the warp's walked columns as lists (scalar-execution
    flag, ``has_dst_enc``, ``divergent``, ``dst_is_scalar``, ``dst``);
    ``src_offsets`` are rebased to the warp's ``sources``.  The walk
    appends to the ``template`` lists: per row its scalar execution,
    its extra instruction and its running access count, and per access
    its kind id and register (a partial write's mask is filled in
    afterwards).
    """
    executed, extra, access_ends, kinds, registers = template
    for may_execute, writes, diverges, to_scalar, destination, lo, hi in zip(
        *rows, src_offsets, src_offsets[1:]
    ):
        reads = sources[lo:hi]
        executed.append(
            may_execute and all(scalar_rf.is_resident(r) for r in reads)
        )
        for register in reads:
            kinds.append(
                SCALAR_RF_READ_ID if scalar_rf.read(register) else FULL_READ_ID
            )
            registers.append(register)
        spilled = 0
        if writes:
            if not diverges and to_scalar:
                scalar_rf.write_scalar(destination)
                kinds.append(SCALAR_RF_WRITE_ID)
                registers.append(destination)
            else:
                if scalar_rf.is_resident(destination):
                    # Leaving the scalar RF; a divergent partial write
                    # first spills the scalar value back.
                    scalar_rf.invalidate(destination)
                    if diverges:
                        kinds += (SCALAR_RF_READ_ID, FULL_WRITE_ID)
                        registers += (destination, destination)
                        spilled = 1
                kinds.append(PARTIAL_WRITE_ID if diverges else FULL_WRITE_ID)
                registers.append(destination)
        extra.append(spilled)
        access_ends.append(len(kinds))
