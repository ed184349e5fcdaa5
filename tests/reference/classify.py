"""The sidecar-state tracker: the per-event classification reference.

:class:`RegisterStateTracker` is the software twin of the hardware
sidecar arrays: it walks one warp's trace in order, updates each
destination register's :class:`~repro.compression.encoding.RegisterEncoding`
exactly as the Figure 3/Figure 7 comparison logic would, and emits a
:class:`ClassifiedEvent` per dynamic instruction carrying everything the
architecture views and the per-event power model need.  It is the
reference of the vectorized classifier
(:func:`repro.scalar.batch.classify_columnar_batch`).

The state evolution is architecture-independent (the enc bits are
produced whether or not a given architecture uses them); which
capabilities are *acted on* is decided later by
:mod:`tests.reference.interpret`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.encoding import SCALAR_PREFIX, RegisterEncoding
from repro.compression.gscalar import common_prefix_bytes
from repro.compression.half import compress_halves
from repro.errors import TraceError
from repro.isa.opcodes import OpCategory
from repro.scalar.eligibility import ScalarClass
from repro.scalar.tracker import HALF_GRANULARITY
from repro.simt.grid import int_to_mask

from tests.reference.trace import KernelTrace, TraceEvent, WarpTrace


@dataclass(frozen=True, slots=True)
class SourceRead:
    """State of one source register at the moment it was read.

    ``scalar_for_read`` already accounts for the §4.2 mask check: a
    divergently-written source is scalar only when the reader's active
    mask equals the mask stored in the BVR.
    """

    register: int
    encoding: RegisterEncoding
    scalar_for_read: bool
    lo_scalar: bool
    hi_scalar: bool


def classify_source_read(
    encoding: RegisterEncoding, reader_divergent: bool, reader_mask: int
) -> SourceRead:
    """Apply §4.1/§4.2 rules to one source register."""
    if encoding.divergent:
        # D=1: values stored uncompressed; BVR holds the writer's mask.
        # enc==1111 plus an exact mask match makes it a divergent scalar
        # source; a non-divergent reader can never treat it as scalar.
        scalar = (
            reader_divergent
            and encoding.enc == SCALAR_PREFIX
            and encoding.base == reader_mask
        )
        lo_scalar = hi_scalar = False
    else:
        scalar = encoding.enc == SCALAR_PREFIX
        lo_scalar = encoding.enc_lo == SCALAR_PREFIX
        hi_scalar = encoding.enc_hi == SCALAR_PREFIX
    return SourceRead(
        register=-1,  # filled in by the tracker
        encoding=encoding,
        scalar_for_read=scalar,
        lo_scalar=lo_scalar,
        hi_scalar=hi_scalar,
    )


def classify_instruction(
    category: OpCategory,
    divergent: bool,
    sources: tuple[SourceRead, ...],
    varying_special_src: bool,
) -> tuple[ScalarClass, bool, bool]:
    """Bucket one instruction; returns (class, lo_half_ok, hi_half_ok).

    The half flags report which 16-lane halves could execute as scalar
    (meaningful for ``HALF_SCALAR``; both are True for full-scalar
    classes by construction).
    """
    if category is OpCategory.CTRL:
        return ScalarClass.NOT_ELIGIBLE, False, False
    if varying_special_src:
        # A %tid/%lane operand varies per lane: never scalar.
        return ScalarClass.NOT_ELIGIBLE, False, False

    if divergent:
        if all(s.scalar_for_read for s in sources):
            return ScalarClass.DIVERGENT_SCALAR, False, False
        return ScalarClass.NOT_ELIGIBLE, False, False

    if all(s.scalar_for_read for s in sources):
        if category is OpCategory.SFU:
            return ScalarClass.SFU_SCALAR, True, True
        if category is OpCategory.MEM:
            return ScalarClass.MEM_SCALAR, True, True
        return ScalarClass.ALU_SCALAR, True, True

    lo_ok = all(s.lo_scalar for s in sources)
    hi_ok = all(s.hi_scalar for s in sources)
    if lo_ok or hi_ok:
        return ScalarClass.HALF_SCALAR, lo_ok, hi_ok
    return ScalarClass.NOT_ELIGIBLE, False, False


@dataclass(frozen=True, slots=True)
class ClassifiedEvent:
    """One dynamic instruction with its scalar/compression analysis."""

    event: TraceEvent
    scalar_class: ScalarClass
    divergent: bool
    sources: tuple[SourceRead, ...]
    dst_encoding: RegisterEncoding | None
    dst_encoding_before: RegisterEncoding | None
    needs_decompress_move: bool
    lo_half_scalar_exec: bool
    hi_half_scalar_exec: bool

    @property
    def category(self) -> OpCategory:
        return self.event.category


class RegisterStateTracker:
    """Per-warp sidecar-state machine (one hardware EBR/BVR set)."""

    def __init__(self, num_registers: int, warp_size: int):
        if num_registers < 0:
            raise TraceError(f"num_registers must be >= 0, got {num_registers}")
        self.warp_size = warp_size
        self.full_mask = (1 << warp_size) - 1
        self._half_granularity = min(HALF_GRANULARITY, max(1, warp_size // 2))
        self._state: dict[int, RegisterEncoding] = {}
        self.num_registers = num_registers

    def state_of(self, register: int) -> RegisterEncoding:
        """Current sidecar state of a register (uncompressed initially)."""
        return self._state.get(register, RegisterEncoding.uncompressed())

    # ------------------------------------------------------------------
    def classify(self, event: TraceEvent) -> ClassifiedEvent:
        """Classify one event and update the destination's state."""
        divergent = event.active_mask != self.full_mask

        sources = []
        for register in event.src_regs:
            read = classify_source_read(
                self.state_of(register), divergent, event.active_mask
            )
            sources.append(
                SourceRead(
                    register=register,
                    encoding=read.encoding,
                    scalar_for_read=read.scalar_for_read,
                    lo_scalar=read.lo_scalar,
                    hi_scalar=read.hi_scalar,
                )
            )
        sources_tuple = tuple(sources)

        scalar_class, lo_ok, hi_ok = classify_instruction(
            event.category, divergent, sources_tuple, event.varying_special_src
        )

        dst_before: RegisterEncoding | None = None
        dst_after: RegisterEncoding | None = None
        needs_move = False
        if event.dst is not None and event.dst_values is not None:
            dst_before = self.state_of(event.dst)
            if divergent:
                # §3.3: a divergent write to a compressed register needs
                # the special decompress-move first.
                needs_move = not dst_before.divergent and dst_before.enc > 0
                dst_after = self._divergent_write_state(event)
            else:
                dst_after = self._full_write_state(event)
            self._state[event.dst] = dst_after

        return ClassifiedEvent(
            event=event,
            scalar_class=scalar_class,
            divergent=divergent,
            sources=sources_tuple,
            dst_encoding=dst_after,
            dst_encoding_before=dst_before,
            needs_decompress_move=needs_move,
            lo_half_scalar_exec=lo_ok if scalar_class is ScalarClass.HALF_SCALAR else False,
            hi_half_scalar_exec=hi_ok if scalar_class is ScalarClass.HALF_SCALAR else False,
        )

    # ------------------------------------------------------------------
    def _full_write_state(self, event: TraceEvent) -> RegisterEncoding:
        values = event.dst_values
        assert values is not None
        enc = common_prefix_bytes(values)
        halves = compress_halves(values, granularity=self._half_granularity)
        return RegisterEncoding(
            enc=enc,
            base=int(values[0]),
            divergent=False,
            enc_lo=halves.enc_lo,
            enc_hi=halves.enc_hi,
            base_lo=halves.base_lo,
            base_hi=halves.base_hi,
            full_scalar=halves.full_scalar,
        )

    def _divergent_write_state(self, event: TraceEvent) -> RegisterEncoding:
        values = event.dst_values
        assert values is not None
        mask = int_to_mask(event.active_mask, self.warp_size)
        enc = common_prefix_bytes(values, mask)
        # §4.2: the BVR stores the writer's active mask, not a base value;
        # the half-register pairs are not maintained for divergent writes.
        return RegisterEncoding(enc=enc, base=event.active_mask, divergent=True)


def classify_trace(trace: KernelTrace, num_registers: int) -> list[list[ClassifiedEvent]]:
    """Classify every warp of a kernel trace (fresh tracker per warp).

    The per-event reference for :func:`repro.scalar.batch.classify_columnar_batch`,
    which the runner uses; tests compare the two array for array.
    """
    classified: list[list[ClassifiedEvent]] = []
    for warp in trace.warps:
        tracker = RegisterStateTracker(num_registers, trace.warp_size)
        classified.append([tracker.classify(e) for e in warp.events])
    return classified


def classify_warp(warp: WarpTrace, num_registers: int) -> list[ClassifiedEvent]:
    """Classify a single warp's trace."""
    tracker = RegisterStateTracker(num_registers, warp.warp_size)
    return [tracker.classify(e) for e in warp.events]
