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

Three interpretation regimes exist, dispatched on the architecture:

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
* **plain** (baseline, no compression, no scalar RF): trivially
  vectorized.

The differential suite pins :func:`process_columns` array for array to
the per-event ``ArchitectureView`` reference in ``tests/reference``,
across every workload and every architecture.
"""

from __future__ import annotations

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
    """Interpret a classified column set for one architecture.

    ``move_elision`` optionally applies the §3.3 compiler-assisted
    decompress-move elision (compression-backed architectures only,
    same as the event engine); ``static_widths`` is the per-register
    proven ``enc`` table feeding the static-compression architecture
    (required when ``arch.static_compression``).
    """
    if ccols.warp_size < 1:
        raise ConfigError(f"warp_size must be >= 1, got {ccols.warp_size}")
    if arch.static_compression:
        if static_widths is None:
            raise ConfigError(
                f"{arch.name}: static compression needs the kernel's "
                "per-register guaranteed widths (analyze_widths(...)."
                "register_enc)"
            )
        return _process_static(ccols, arch, static_widths)
    if arch.register_compression:
        return _process_compressed(ccols, arch, move_elision)
    if arch.dedicated_scalar_rf:
        return _process_scalar_rf(ccols, arch)
    return _process_plain(ccols, arch)


class ArchCarry:
    """Per-warp interpretation state threaded between trace chunks.

    Of the four interpretation regimes only the dedicated-scalar-RF
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

    The chunk-streaming counterpart of :func:`process_columns`: the
    stateless regimes (compressed, plain, static) are pure functions of
    the chunk's rows and dispatch unchanged; the dedicated-scalar-RF
    walk resumes split warps from ``carry`` so concatenated chunk
    outputs match the whole-trace interpretation bit-for-bit.
    """
    if ccols.warp_size < 1:
        raise ConfigError(f"warp_size must be >= 1, got {ccols.warp_size}")
    if arch.dedicated_scalar_rf and not (
        arch.static_compression or arch.register_compression
    ):
        return _process_scalar_rf(
            ccols,
            arch,
            carry=carry,
            warp_start=warp_start,
            first_warp_continued=first_warp_continued,
            last_warp_continues=last_warp_continues,
        )
    return process_columns(
        ccols, arch, move_elision=move_elision, static_widths=static_widths
    )


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
    kind_src = np.where(
        src_divergent,
        FULL_READ_ID,
        np.where(src_scalar, SCALAR_READ_ID, COMPRESSED_READ_ID),
    ).astype(np.uint8)
    enc_src = np.where(src_divergent, 0, ccols.src_enc).astype(np.int8)
    enc_lo_src = np.where(compressed_src, ccols.src_enc_lo, 0).astype(np.int8)
    enc_hi_src = np.where(compressed_src, ccols.src_enc_hi, 0).astype(np.int8)
    half_src = compressed_src & half_compression
    decomp_src = compressed_src & (
        (ccols.src_enc > 0)
        | (half_compression & ((ccols.src_enc_lo > 0) | (ccols.src_enc_hi > 0)))
    )

    src_offsets = ccols.src_offsets
    src_counts = np.diff(src_offsets)
    decompressor = _segment_sums(decomp_src, src_offsets).astype(np.int32)

    # Event-level structure -------------------------------------------------
    move = _effective_moves(ccols, move_elision)
    has_dst = ccols.has_dst_enc
    extra = move.astype(np.int32)
    decompressor += extra
    compressor = np.where(
        has_dst,
        np.where(
            ccols.divergent,
            1,
            np.where(ccols.dst_is_scalar, 1 - scalar_executed.astype(np.int32), 1),
        ),
        0,
    ).astype(np.int32)

    acc_counts = src_counts + 2 * move.astype(np.int64) + has_dst.astype(np.int64)
    acc_offsets = np.zeros(len(acc_counts) + 1, dtype=np.int64)
    np.cumsum(acc_counts, out=acc_offsets[1:])
    total = int(acc_offsets[-1])

    kind_ids = np.empty(total, dtype=np.uint8)
    registers = np.empty(total, dtype=np.int32)
    enc = np.zeros(total, dtype=np.int8)
    enc_lo = np.zeros(total, dtype=np.int8)
    enc_hi = np.zeros(total, dtype=np.int8)
    half = np.zeros(total, dtype=bool)
    acc_masks = np.zeros(total, dtype=np.uint64)
    # Every compressed-path access touches the BVR/EBR sidecar.
    sidecar = np.ones(total, dtype=bool)

    # Scatter sources: event i's sources land at acc_offsets[i] + k.
    m_src = int(src_offsets[-1])
    if m_src:
        pos_src = np.repeat(acc_offsets[:-1], src_counts) + (
            np.arange(m_src, dtype=np.int64) - np.repeat(src_offsets[:-1], src_counts)
        )
        kind_ids[pos_src] = kind_src
        registers[pos_src] = ccols.src_registers
        enc[pos_src] = enc_src
        enc_lo[pos_src] = enc_lo_src
        enc_hi[pos_src] = enc_hi_src
        half[pos_src] = half_src

    # Scatter decompress-move pairs (compressed read-back + full write).
    move_idx = np.flatnonzero(move)
    if len(move_idx):
        pos_read = acc_offsets[move_idx] + src_counts[move_idx]
        pos_write = pos_read + 1
        kind_ids[pos_read] = COMPRESSED_READ_ID
        registers[pos_read] = ccols.dst[move_idx]
        enc[pos_read] = ccols.before_enc[move_idx]
        enc_lo[pos_read] = ccols.before_enc_lo[move_idx]
        enc_hi[pos_read] = ccols.before_enc_hi[move_idx]
        half[pos_read] = half_compression
        kind_ids[pos_write] = FULL_WRITE_ID
        registers[pos_write] = ccols.dst[move_idx]

    # Scatter the final destination write (last row of each block).
    write_idx = np.flatnonzero(has_dst)
    if len(write_idx):
        pos_dst = acc_offsets[write_idx + 1] - 1
        div_w = ccols.divergent[write_idx]
        scalar_w = ~div_w & ccols.dst_is_scalar[write_idx]
        other_w = ~div_w & ~scalar_w
        kind_ids[pos_dst] = np.where(
            div_w,
            PARTIAL_WRITE_ID,
            np.where(scalar_w, SCALAR_WRITE_ID, COMPRESSED_WRITE_ID),
        ).astype(np.uint8)
        registers[pos_dst] = ccols.dst[write_idx]
        enc[pos_dst] = np.where(
            div_w, 0, np.where(scalar_w, 4, ccols.dst_enc[write_idx])
        ).astype(np.int8)
        enc_lo[pos_dst] = np.where(other_w, ccols.dst_enc_lo[write_idx], 0).astype(
            np.int8
        )
        enc_hi[pos_dst] = np.where(other_w, ccols.dst_enc_hi[write_idx], 0).astype(
            np.int8
        )
        half[pos_dst] = other_w & half_compression
        acc_masks[pos_dst] = np.where(div_w, ccols.masks[write_idx], 0)

    return ProcessedColumns(
        warp_size=ccols.warp_size,
        warp_lengths=ccols.warp_lengths,
        opcode_ids=ccols.opcode_ids,
        category_codes=ccols.category_codes,
        active_lanes=ccols.active_lanes,
        scalar_executed=scalar_executed,
        lo_half_scalar=lo_half,
        hi_half_scalar=hi_half,
        exec_lanes=_exec_lanes(ccols, scalar_executed, lo_half, hi_half),
        extra_instructions=extra,
        compressor_ops=compressor,
        decompressor_ops=decompressor,
        acc_offsets=acc_offsets,
        acc_kind_ids=kind_ids,
        acc_registers=registers,
        acc_enc=enc,
        acc_enc_lo=enc_lo,
        acc_enc_hi=enc_hi,
        acc_half=half,
        acc_masks=acc_masks,
        acc_sidecar=sidecar,
    )


# ----------------------------------------------------------------------
# Plain register file (baseline: no compression, no scalar RF).
# ----------------------------------------------------------------------
def _process_plain(
    ccols: ClassifiedColumns, arch: ArchitectureConfig
) -> ProcessedColumns:
    accepts = _accepts_lut(arch)[ccols.scalar_class_ids]
    scalar_executed = accepts & (ccols.scalar_class_ids == _ALU_SCALAR_ID)
    no_half = np.zeros(ccols.num_events, dtype=bool)

    src_offsets = ccols.src_offsets
    src_counts = np.diff(src_offsets)
    has_dst = ccols.has_dst_enc
    acc_counts = src_counts + has_dst.astype(np.int64)
    acc_offsets = np.zeros(len(acc_counts) + 1, dtype=np.int64)
    np.cumsum(acc_counts, out=acc_offsets[1:])
    total = int(acc_offsets[-1])

    kind_ids = np.empty(total, dtype=np.uint8)
    registers = np.empty(total, dtype=np.int32)
    acc_masks = np.zeros(total, dtype=np.uint64)

    m_src = int(src_offsets[-1])
    if m_src:
        pos_src = np.repeat(acc_offsets[:-1], src_counts) + (
            np.arange(m_src, dtype=np.int64) - np.repeat(src_offsets[:-1], src_counts)
        )
        kind_ids[pos_src] = FULL_READ_ID
        registers[pos_src] = ccols.src_registers

    write_idx = np.flatnonzero(has_dst)
    if len(write_idx):
        pos_dst = acc_offsets[write_idx + 1] - 1
        div_w = ccols.divergent[write_idx]
        kind_ids[pos_dst] = np.where(div_w, PARTIAL_WRITE_ID, FULL_WRITE_ID).astype(
            np.uint8
        )
        registers[pos_dst] = ccols.dst[write_idx]
        acc_masks[pos_dst] = np.where(div_w, ccols.masks[write_idx], 0)

    zeros32 = np.zeros(ccols.num_events, dtype=np.int32)
    return ProcessedColumns(
        warp_size=ccols.warp_size,
        warp_lengths=ccols.warp_lengths,
        opcode_ids=ccols.opcode_ids,
        category_codes=ccols.category_codes,
        active_lanes=ccols.active_lanes,
        scalar_executed=scalar_executed,
        lo_half_scalar=no_half,
        hi_half_scalar=no_half.copy(),
        exec_lanes=_exec_lanes(ccols, scalar_executed, no_half, no_half),
        extra_instructions=zeros32,
        compressor_ops=zeros32.copy(),
        decompressor_ops=zeros32.copy(),
        acc_offsets=acc_offsets,
        acc_kind_ids=kind_ids,
        acc_registers=registers,
        acc_enc=np.zeros(total, dtype=np.int8),
        acc_enc_lo=np.zeros(total, dtype=np.int8),
        acc_enc_hi=np.zeros(total, dtype=np.int8),
        acc_half=np.zeros(total, dtype=bool),
        acc_masks=acc_masks,
        acc_sidecar=np.zeros(total, dtype=bool),
    )


# ----------------------------------------------------------------------
# Statically-compressed register file (compile-time proven widths).
# ----------------------------------------------------------------------
def _process_static(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    static_widths,
) -> ProcessedColumns:
    """Vector form of ``ArchitectureView._process_static_compressed``.

    Every access shape is a pure table lookup — register id into the
    proven-width table — so this is the simplest vectorized regime:
    like :func:`_process_plain` but with reads/writes of proven-narrow
    registers emitted as sidecar-less compressed accesses, plus a
    decompressor tick per compressed read.  No scalar execution, no
    compressor energy, no extra instructions.
    """
    widths_arr = np.asarray(static_widths, dtype=np.int8)
    no_scalar = np.zeros(ccols.num_events, dtype=bool)
    no_half = np.zeros(ccols.num_events, dtype=bool)

    src_offsets = ccols.src_offsets
    src_counts = np.diff(src_offsets)
    src_enc = widths_arr[ccols.src_registers]
    compressed_src = src_enc > 0
    decompressor = _segment_sums(compressed_src, src_offsets).astype(np.int32)

    has_dst = ccols.has_dst_enc
    acc_counts = src_counts + has_dst.astype(np.int64)
    acc_offsets = np.zeros(len(acc_counts) + 1, dtype=np.int64)
    np.cumsum(acc_counts, out=acc_offsets[1:])
    total = int(acc_offsets[-1])

    kind_ids = np.empty(total, dtype=np.uint8)
    registers = np.empty(total, dtype=np.int32)
    enc = np.zeros(total, dtype=np.int8)
    acc_masks = np.zeros(total, dtype=np.uint64)

    m_src = int(src_offsets[-1])
    if m_src:
        pos_src = np.repeat(acc_offsets[:-1], src_counts) + (
            np.arange(m_src, dtype=np.int64) - np.repeat(src_offsets[:-1], src_counts)
        )
        kind_ids[pos_src] = np.where(
            compressed_src, COMPRESSED_READ_ID, FULL_READ_ID
        ).astype(np.uint8)
        registers[pos_src] = ccols.src_registers
        enc[pos_src] = src_enc  # zero wherever the read is full

    write_idx = np.flatnonzero(has_dst)
    if len(write_idx):
        pos_dst = acc_offsets[write_idx + 1] - 1
        div_w = ccols.divergent[write_idx]
        dst_enc = widths_arr[ccols.dst[write_idx]]
        kind_ids[pos_dst] = np.where(
            div_w,
            PARTIAL_WRITE_ID,
            np.where(dst_enc > 0, COMPRESSED_WRITE_ID, FULL_WRITE_ID),
        ).astype(np.uint8)
        registers[pos_dst] = ccols.dst[write_idx]
        enc[pos_dst] = np.where(div_w, 0, dst_enc).astype(np.int8)
        acc_masks[pos_dst] = np.where(div_w, ccols.masks[write_idx], 0)

    zeros32 = np.zeros(ccols.num_events, dtype=np.int32)
    return ProcessedColumns(
        warp_size=ccols.warp_size,
        warp_lengths=ccols.warp_lengths,
        opcode_ids=ccols.opcode_ids,
        category_codes=ccols.category_codes,
        active_lanes=ccols.active_lanes,
        scalar_executed=no_scalar,
        lo_half_scalar=no_half,
        hi_half_scalar=no_half.copy(),
        exec_lanes=_exec_lanes(ccols, no_scalar, no_half, no_half),
        extra_instructions=zeros32,
        compressor_ops=zeros32.copy(),
        decompressor_ops=decompressor,
        acc_offsets=acc_offsets,
        acc_kind_ids=kind_ids,
        acc_registers=registers,
        acc_enc=enc,
        acc_enc_lo=np.zeros(total, dtype=np.int8),
        acc_enc_hi=np.zeros(total, dtype=np.int8),
        acc_half=np.zeros(total, dtype=bool),
        acc_masks=acc_masks,
        acc_sidecar=np.zeros(total, dtype=bool),
    )


# ----------------------------------------------------------------------
# Dedicated scalar RF (prior-work ALU-scalar): sequential sidecar walk.
# ----------------------------------------------------------------------
def _process_scalar_rf(
    ccols: ClassifiedColumns,
    arch: ArchitectureConfig,
    carry: "ArchCarry | None" = None,
    warp_start: int = 0,
    first_warp_continued: bool = False,
    last_warp_continues: bool = False,
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

    ``carry`` (chunked mode) resumes a boundary-split warp's register
    file from the previous chunk and parks it again for the next one;
    such a warp is walked on its own, never shared.
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
    resumed = carry is not None and first_warp_continued and num_warps > 0
    parked = carry is not None and last_warp_continues and num_warps > 0
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

    acc_masks = np.zeros(total, dtype=np.uint64)
    partial = np.flatnonzero(has_dst & divergent)
    acc_masks[acc_offsets[partial + 1] - 1] = ccols.masks[partial]

    no_half = np.zeros(count, dtype=bool)
    return ProcessedColumns(
        warp_size=ccols.warp_size,
        warp_lengths=ccols.warp_lengths,
        opcode_ids=ccols.opcode_ids,
        category_codes=ccols.category_codes,
        active_lanes=ccols.active_lanes,
        scalar_executed=scalar_executed,
        lo_half_scalar=no_half,
        hi_half_scalar=no_half.copy(),
        exec_lanes=_exec_lanes(ccols, scalar_executed, no_half, no_half),
        extra_instructions=np.array(extra, dtype=np.int32)[event_rows],
        compressor_ops=has_dst.astype(np.int32),
        decompressor_ops=np.zeros(count, dtype=np.int32),
        acc_offsets=acc_offsets,
        acc_kind_ids=np.array(kinds, dtype=np.uint8)[access_rows],
        acc_registers=np.array(registers, dtype=np.int32)[access_rows],
        acc_enc=np.zeros(total, dtype=np.int8),
        acc_enc_lo=np.zeros(total, dtype=np.int8),
        acc_enc_hi=np.zeros(total, dtype=np.int8),
        acc_half=np.zeros(total, dtype=bool),
        acc_masks=acc_masks,
        acc_sidecar=np.zeros(total, dtype=bool),
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
