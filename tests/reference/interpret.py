"""Per-event architecture interpretation of classified events.

The tracker (:mod:`tests.reference.classify`) computes what the
hardware *could* know; an :class:`ArchitectureView` decides what a
concrete architecture *does* with it: which instructions execute as
scalar, how many execution lanes burn energy, what shape every
register-file access takes, and which extra decompress/spill
instructions get inserted.

One view instance handles one warp (the ALU-scalar view keeps scalar-RF
residency state); use :func:`process_classified` for a whole classified
trace.  This chain is the reference of the columnar engine
(:func:`repro.scalar.arch_batch.process_columns`), and
:func:`processed_columns_from_events` packs its output into the same
:class:`~repro.scalar.columns.ProcessedColumns` layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ArchitectureConfig
from repro.errors import ConfigError
from repro.regfile.access import ACCESS_KIND_TO_ID, AccessKind, RegisterAccess
from repro.regfile.scalar_rf import ScalarRegisterFile
from repro.scalar.arch_batch import _arch_accepts
from repro.scalar.columns import CATEGORY_CODE_BY_OPCODE, ProcessedColumns
from repro.scalar.eligibility import ScalarClass
from repro.simt.trace import OPCODE_TO_ID

from tests.reference.classify import ClassifiedEvent


@dataclass(frozen=True)
class ProcessedEvent:
    """One dynamic instruction as a specific architecture executes it."""

    classified: ClassifiedEvent
    scalar_executed: bool
    lo_half_scalar: bool
    hi_half_scalar: bool
    exec_lanes: int
    rf_accesses: tuple[RegisterAccess, ...]
    extra_instructions: int
    compressor_ops: int
    decompressor_ops: int

    @property
    def scalar_class(self) -> ScalarClass:
        return self.classified.scalar_class


class ArchitectureView:
    """Stateful per-warp processor for one architecture.

    ``move_elision`` optionally enables the §3.3 compiler-assisted
    technique: a :class:`repro.scalar.compiler.MoveElisionAnalysis`
    whose verdicts suppress decompress-moves whose preserved values are
    provably dead.
    """

    def __init__(
        self,
        arch: ArchitectureConfig,
        warp_size: int,
        move_elision=None,
        static_widths=None,
    ):
        self.arch = arch
        self.warp_size = warp_size
        self.half_lanes = warp_size // 2
        self.move_elision = move_elision
        if arch.static_compression and static_widths is None:
            raise ConfigError(
                f"{arch.name}: static compression needs the kernel's "
                "per-register guaranteed widths (analyze_widths(...)."
                "register_enc)"
            )
        self.static_widths = static_widths
        self._scalar_rf: ScalarRegisterFile | None = (
            ScalarRegisterFile() if arch.dedicated_scalar_rf else None
        )

    # ------------------------------------------------------------------
    def process(self, item: ClassifiedEvent) -> ProcessedEvent:
        if self.arch.static_compression:
            return self._process_static_compressed(item)
        if self.arch.register_compression:
            return self._process_compressed(item)
        return self._process_uncompressed(item)

    # ------------------------------------------------------------------
    # Static compression: compile-time proven widths, no detector.
    # ------------------------------------------------------------------
    def _process_static_compressed(self, item: ClassifiedEvent) -> ProcessedEvent:
        """Compressed RF driven purely by the static width analysis.

        A register the analysis proves to keep ``enc`` zero prefix bytes
        on *every* path is stored compressed: reads activate only the
        live arrays and expand through the decompressor; full writes
        store the proven-narrow bytes.  There is no compressor energy
        anywhere — the width is a compile-time fact, nothing is detected
        at runtime — and no sidecar, because the encoding lives in the
        program text rather than in per-register metadata.  Divergent
        partial writes are billed at the baseline masked-array cost (a
        conservative over-estimate for compressed registers).
        """
        widths = self.static_widths
        assert widths is not None
        accesses: list[RegisterAccess] = []
        decompressor_ops = 0
        for source in item.sources:
            enc = widths[source.register]
            if enc > 0:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.COMPRESSED_READ,
                        register=source.register,
                        enc=enc,
                    )
                )
                decompressor_ops += 1
            else:
                accesses.append(
                    RegisterAccess(kind=AccessKind.FULL_READ, register=source.register)
                )

        if item.dst_encoding is not None:
            event = item.event
            dst = event.dst
            assert dst is not None
            if item.divergent:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.PARTIAL_WRITE,
                        register=dst,
                        active_mask=event.active_mask,
                    )
                )
            else:
                enc = widths[dst]
                if enc > 0:
                    accesses.append(
                        RegisterAccess(
                            kind=AccessKind.COMPRESSED_WRITE, register=dst, enc=enc
                        )
                    )
                else:
                    accesses.append(
                        RegisterAccess(kind=AccessKind.FULL_WRITE, register=dst)
                    )

        exec_lanes = self._exec_lanes(item, False, False, False)
        return ProcessedEvent(
            classified=item,
            scalar_executed=False,
            lo_half_scalar=False,
            hi_half_scalar=False,
            exec_lanes=exec_lanes,
            rf_accesses=tuple(accesses),
            extra_instructions=0,
            compressor_ops=0,
            decompressor_ops=decompressor_ops,
        )

    # ------------------------------------------------------------------
    # G-Scalar variants: compression-backed register file.
    # ------------------------------------------------------------------
    def _process_compressed(self, item: ClassifiedEvent) -> ProcessedEvent:
        accepts = _arch_accepts(self.arch, item.scalar_class)
        scalar_executed = accepts and item.scalar_class is not ScalarClass.HALF_SCALAR
        lo_half = accepts and item.lo_half_scalar_exec
        hi_half = accepts and item.hi_half_scalar_exec

        accesses: list[RegisterAccess] = []
        decompressor_ops = 0
        for source in item.sources:
            encoding = source.encoding
            if encoding.divergent:
                # D=1 registers are stored uncompressed; even a divergent-
                # scalar read brings all lanes from the arrays (§4.2).
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.FULL_READ,
                        register=source.register,
                        sidecar=True,
                    )
                )
            elif source.scalar_for_read:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.SCALAR_READ,
                        register=source.register,
                        enc=encoding.enc,
                        sidecar=True,
                    )
                )
            else:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.COMPRESSED_READ,
                        register=source.register,
                        enc=encoding.enc,
                        enc_lo=encoding.enc_lo,
                        enc_hi=encoding.enc_hi,
                        half_compressed=self.arch.half_register_compression,
                        sidecar=True,
                    )
                )
                if encoding.enc > 0 or (
                    self.arch.half_register_compression
                    and (encoding.enc_lo > 0 or encoding.enc_hi > 0)
                ):
                    decompressor_ops += 1

        extra_instructions = 0
        compressor_ops = 0
        if item.dst_encoding is not None:
            event = item.event
            needs_move = item.needs_decompress_move
            if (
                needs_move
                and self.move_elision is not None
                and event.dst is not None
                and self.move_elision.move_elidable(event.block_id, event.dst)
            ):
                needs_move = False
            if needs_move:
                # §3.3 hardware-assisted technique: a decompress-move
                # reads the compressed register and stores it back
                # uncompressed before the divergent partial write.
                before = item.dst_encoding_before
                assert before is not None
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.COMPRESSED_READ,
                        register=event.dst,
                        enc=before.enc,
                        enc_lo=before.enc_lo,
                        enc_hi=before.enc_hi,
                        half_compressed=self.arch.half_register_compression,
                        sidecar=True,
                    )
                )
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.FULL_WRITE, register=event.dst, sidecar=True
                    )
                )
                extra_instructions += 1
                decompressor_ops += 1
            if item.divergent:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.PARTIAL_WRITE,
                        register=event.dst,
                        active_mask=event.active_mask,
                        sidecar=True,
                    )
                )
                compressor_ops += 1  # enc bits are still generated (§4.2)
            elif item.dst_encoding.is_scalar:
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.SCALAR_WRITE,
                        register=event.dst,
                        enc=4,
                        sidecar=True,
                    )
                )
                if not scalar_executed:
                    compressor_ops += 1
            else:
                encoding = item.dst_encoding
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.COMPRESSED_WRITE,
                        register=event.dst,
                        enc=encoding.enc,
                        enc_lo=encoding.enc_lo,
                        enc_hi=encoding.enc_hi,
                        half_compressed=self.arch.half_register_compression,
                        sidecar=True,
                    )
                )
                compressor_ops += 1

        exec_lanes = self._exec_lanes(item, scalar_executed, lo_half, hi_half)
        return ProcessedEvent(
            classified=item,
            scalar_executed=scalar_executed,
            lo_half_scalar=lo_half,
            hi_half_scalar=hi_half,
            exec_lanes=exec_lanes,
            rf_accesses=tuple(accesses),
            extra_instructions=extra_instructions,
            compressor_ops=compressor_ops,
            decompressor_ops=decompressor_ops,
        )

    # ------------------------------------------------------------------
    # Baseline and ALU-scalar: conventional register file.
    # ------------------------------------------------------------------
    def _process_uncompressed(self, item: ClassifiedEvent) -> ProcessedEvent:
        scalar_rf = self._scalar_rf
        accepts = _arch_accepts(self.arch, item.scalar_class)
        scalar_executed = accepts and item.scalar_class is ScalarClass.ALU_SCALAR

        accesses: list[RegisterAccess] = []
        if scalar_rf is not None and scalar_executed:
            # Scalar execution requires every register operand to be
            # resident in the dedicated scalar RF.
            scalar_executed = all(
                scalar_rf.is_resident(s.register) for s in item.sources
            )

        for source in item.sources:
            if scalar_rf is not None and scalar_rf.read(source.register):
                accesses.append(
                    RegisterAccess(
                        kind=AccessKind.SCALAR_RF_READ, register=source.register
                    )
                )
            else:
                accesses.append(
                    RegisterAccess(kind=AccessKind.FULL_READ, register=source.register)
                )

        extra_instructions = 0
        compressor_ops = 0
        if item.dst_encoding is not None:
            event = item.event
            dst = event.dst
            assert dst is not None
            if scalar_rf is not None:
                # The prior architecture detects scalar values with a
                # write-back comparison tree of its own [3]; §3.2 notes
                # ours is "almost the same" logic, so the same per-write
                # energy applies.
                compressor_ops += 1
            writes_scalar_rf = (
                scalar_rf is not None
                and not item.divergent
                and item.dst_encoding.is_scalar
            )
            if writes_scalar_rf:
                assert scalar_rf is not None
                scalar_rf.write_scalar(dst)
                accesses.append(
                    RegisterAccess(kind=AccessKind.SCALAR_RF_WRITE, register=dst)
                )
            else:
                if scalar_rf is not None and scalar_rf.is_resident(dst):
                    # The register leaves the scalar RF; a divergent
                    # partial write must first spill the scalar value to
                    # the vector RF so inactive lanes keep their data.
                    scalar_rf.invalidate(dst)
                    if item.divergent:
                        accesses.append(
                            RegisterAccess(kind=AccessKind.SCALAR_RF_READ, register=dst)
                        )
                        accesses.append(
                            RegisterAccess(kind=AccessKind.FULL_WRITE, register=dst)
                        )
                        extra_instructions += 1
                if item.divergent:
                    accesses.append(
                        RegisterAccess(
                            kind=AccessKind.PARTIAL_WRITE,
                            register=dst,
                            active_mask=event.active_mask,
                        )
                    )
                else:
                    accesses.append(
                        RegisterAccess(kind=AccessKind.FULL_WRITE, register=dst)
                    )

        exec_lanes = self._exec_lanes(item, scalar_executed, False, False)
        return ProcessedEvent(
            classified=item,
            scalar_executed=scalar_executed,
            lo_half_scalar=False,
            hi_half_scalar=False,
            exec_lanes=exec_lanes,
            rf_accesses=tuple(accesses),
            extra_instructions=extra_instructions,
            compressor_ops=compressor_ops,
            decompressor_ops=0,
        )

    # ------------------------------------------------------------------
    def _exec_lanes(
        self,
        item: ClassifiedEvent,
        scalar_executed: bool,
        lo_half: bool,
        hi_half: bool,
    ) -> int:
        """Lanes consuming execution energy (inactive lanes clock-gate)."""
        if item.category.value == "ctrl":
            return 0
        if scalar_executed:
            return 1
        active = item.event.active_lane_count()
        if lo_half or hi_half:
            lanes = 0
            lanes += 1 if lo_half else self.half_lanes
            lanes += 1 if hi_half else self.half_lanes
            return lanes
        return active


def process_classified(
    classified: list[list[ClassifiedEvent]],
    arch: ArchitectureConfig,
    warp_size: int,
    move_elision=None,
    static_widths=None,
) -> list[list[ProcessedEvent]]:
    """Process pre-classified warps (lets callers classify once and
    evaluate many architectures).  ``move_elision`` optionally applies
    the §3.3 compiler-assisted decompress-move elision; ``static_widths``
    feeds the static-compression architecture its per-register proven
    ``enc`` table (required when ``arch.static_compression``)."""
    if warp_size < 1:
        raise ConfigError(f"warp_size must be >= 1, got {warp_size}")
    processed: list[list[ProcessedEvent]] = []
    for warp_events in classified:
        view = ArchitectureView(
            arch, warp_size, move_elision=move_elision, static_widths=static_widths
        )
        processed.append([view.process(item) for item in warp_events])
    return processed


@dataclass
class ProcessedStatistics:
    """Aggregate counters over processed events."""

    total_instructions: int = 0
    scalar_executed: int = 0
    half_scalar_executed: int = 0
    extra_instructions: int = 0
    compressor_ops: int = 0
    decompressor_ops: int = 0
    exec_lane_sum: int = 0
    class_counts: dict[ScalarClass, int] = field(
        default_factory=lambda: {c: 0 for c in ScalarClass}
    )


def processed_statistics(processed: list[list[ProcessedEvent]]) -> ProcessedStatistics:
    """Roll up per-event results into one summary."""
    stats = ProcessedStatistics()
    for warp_events in processed:
        for item in warp_events:
            stats.total_instructions += 1
            stats.class_counts[item.scalar_class] += 1
            if item.scalar_executed:
                stats.scalar_executed += 1
            if item.lo_half_scalar or item.hi_half_scalar:
                stats.half_scalar_executed += 1
            stats.extra_instructions += item.extra_instructions
            stats.compressor_ops += item.compressor_ops
            stats.decompressor_ops += item.decompressor_ops
            stats.exec_lane_sum += item.exec_lanes
    return stats


def processed_columns_from_events(
    processed: list[list], warp_size: int
) -> ProcessedColumns:
    """Columnarize an event-engine result (the differential bridge).

    Walks :class:`ProcessedEvent` streams and packs them into the
    same layout the batch engine produces, so the two engines can be
    compared exactly with
    :func:`tests.reference.columns.processed_columns_equal`.
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

    return ProcessedColumns(
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
