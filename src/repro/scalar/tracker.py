"""Replay a dynamic trace, maintaining per-register BVR/EBR/D/FS state.

:class:`RegisterStateTracker` is the software twin of the hardware
sidecar arrays: it walks one warp's trace in order, updates each
destination register's :class:`~repro.compression.encoding.RegisterEncoding`
exactly as the Figure 3/Figure 7 comparison logic would, and emits a
:class:`ClassifiedEvent` per dynamic instruction carrying everything the
architecture views and the per-event power model need.  It is the
reference oracle of the vectorized classifier
(:mod:`repro.scalar.batch`), which the experiments run; this module
also keeps :func:`trace_statistics`, the Figure 9 counts over the
classified columns.

The state evolution is architecture-independent (the enc bits are
produced whether or not a given architecture uses them); which
capabilities are *acted on* is decided later by
:mod:`repro.scalar.architectures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.encoding import RegisterEncoding
from repro.compression.gscalar import common_prefix_bytes
from repro.compression.half import compress_halves
from repro.errors import TraceError
from repro.isa.opcodes import OpCategory
from repro.scalar.eligibility import (
    SCALAR_CLASS_TO_ID,
    ScalarClass,
    SourceRead,
    classify_instruction,
    classify_source_read,
)
from repro.simt.grid import int_to_mask
from repro.simt.trace import KernelTrace, TraceEvent, WarpTrace

#: Half-register granularity in lanes.  The paper fixes this at 16 even
#: for 64-thread warps ("quarter-scalar", Figure 10).
HALF_GRANULARITY = 16


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


@dataclass
class TrackerStatistics:
    """Aggregate counters over one tracked trace."""

    total_instructions: int = 0
    divergent_instructions: int = 0
    decompress_moves: int = 0
    class_counts: dict[ScalarClass, int] = field(
        default_factory=lambda: {c: 0 for c in ScalarClass}
    )

    def fraction(self, scalar_class: ScalarClass) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.class_counts[scalar_class] / self.total_instructions

    @property
    def eligible_fraction(self) -> float:
        """Fraction of instructions in any scalar bucket."""
        if self.total_instructions == 0:
            return 0.0
        eligible = self.total_instructions - self.class_counts[ScalarClass.NOT_ELIGIBLE]
        return eligible / self.total_instructions


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


def trace_statistics(columns) -> TrackerStatistics:
    """Aggregate classification counters over a
    :class:`~repro.scalar.columns.ClassifiedColumns` set."""
    counts = np.bincount(columns.scalar_class_ids, minlength=len(ScalarClass))
    return TrackerStatistics(
        total_instructions=columns.num_events,
        divergent_instructions=int(np.count_nonzero(columns.divergent)),
        decompress_moves=int(np.count_nonzero(columns.needs_move)),
        class_counts={c: int(counts[SCALAR_CLASS_TO_ID[c]]) for c in ScalarClass},
    )
