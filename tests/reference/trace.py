"""Event form of a kernel trace: one Python object per dynamic instruction.

The per-event reference engines walk a :class:`KernelTrace` of
:class:`WarpTrace` of :class:`TraceEvent`, and hand-written test traces
are built in this form.  :func:`to_trace` materializes it from a
:class:`~repro.simt.trace.ColumnarTrace`; :func:`from_trace` packs it
back through the executor's :class:`~repro.simt.trace.StepRows`
buffer, losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError
from repro.isa.opcodes import OpCategory, Opcode, category_of
from repro.simt.trace import ID_TO_OPCODE, OPCODE_TO_ID, ColumnarTrace, StepRows


@dataclass(slots=True)
class TraceEvent:
    """One dynamic instruction from one warp.

    ``dst_values`` is the destination register's full warp-wide contents
    after the write (``None`` for stores and branches).  ``active_mask``
    is an integer bitmask, lane 0 in bit 0.  ``varying_special_src`` is
    True when a non-register source varies per lane (``%tid``/``%lane``),
    which disqualifies the operand from being scalar.
    """

    opcode: Opcode
    dst: int | None
    src_regs: tuple[int, ...]
    active_mask: int
    block_id: int
    dst_values: np.ndarray | None = None
    addresses: np.ndarray | None = None
    varying_special_src: bool = False
    scalar_nonreg_srcs: int = 0

    @property
    def category(self) -> OpCategory:
        return category_of(self.opcode)

    def is_divergent(self, warp_size: int) -> bool:
        """True when the event ran under a non-full active mask."""
        return self.active_mask != (1 << warp_size) - 1

    def active_lane_count(self) -> int:
        return int(self.active_mask).bit_count()


@dataclass
class WarpTrace:
    """All events of one warp, in program order."""

    warp_id: int
    warp_size: int
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if event.active_mask >> self.warp_size:
            raise TraceError(
                f"event mask {event.active_mask:#x} wider than warp size "
                f"{self.warp_size}"
            )
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass
class KernelTrace:
    """The full dynamic trace of one kernel launch."""

    kernel_name: str
    warp_size: int
    warps: list[WarpTrace] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        return sum(len(w) for w in self.warps)

    def all_events(self):
        """Iterate events warp-major (warp 0's stream, then warp 1's...)."""
        for warp in self.warps:
            yield from warp.events

    def category_histogram(self) -> dict[OpCategory, int]:
        """Dynamic instruction count per pipeline category."""
        histogram: dict[OpCategory, int] = {c: 0 for c in OpCategory}
        for event in self.all_events():
            histogram[event.category] += 1
        return histogram

    def divergent_fraction(self) -> float:
        """Fraction of dynamic instructions with a non-full active mask."""
        total = self.total_instructions
        if total == 0:
            return 0.0
        divergent = sum(
            1 for e in self.all_events() if e.is_divergent(self.warp_size)
        )
        return divergent / total


def to_trace(columnar: ColumnarTrace) -> KernelTrace:
    """Materialize the event form (each snapshot row copied out)."""
    if int(columnar.warp_lengths.sum()) != columnar.num_events:
        raise TraceError(
            f"columnar trace {columnar.kernel_name!r}: warp lengths sum to "
            f"{int(columnar.warp_lengths.sum())}, have "
            f"{columnar.num_events} events"
        )
    trace = KernelTrace(
        kernel_name=columnar.kernel_name, warp_size=columnar.warp_size
    )
    opcode_ids = columnar.opcode_ids.tolist()
    dst = columnar.dst.tolist()
    masks = columnar.masks.tolist()
    blocks = columnar.blocks.tolist()
    varying = columnar.varying.tolist()
    scalar_nonreg = columnar.scalar_nonreg.tolist()
    src_offsets = columnar.src_offsets.tolist()
    src_flat = columnar.src_flat.tolist()
    values_index = columnar.values_index.tolist()
    addr_index = columnar.addr_index.tolist()

    position = 0
    for warp_id, length in zip(
        columnar.warp_ids.tolist(), columnar.warp_lengths.tolist()
    ):
        warp = WarpTrace(warp_id=warp_id, warp_size=columnar.warp_size)
        for _ in range(length):
            value_row = values_index[position]
            addr_row = addr_index[position]
            warp.append(
                TraceEvent(
                    opcode=ID_TO_OPCODE[opcode_ids[position]],
                    dst=None if dst[position] < 0 else dst[position],
                    src_regs=tuple(
                        src_flat[src_offsets[position]:src_offsets[position + 1]]
                    ),
                    active_mask=masks[position],
                    block_id=blocks[position],
                    dst_values=columnar.values[value_row].copy()
                    if value_row >= 0
                    else None,
                    addresses=columnar.addresses[addr_row].copy()
                    if addr_row >= 0
                    else None,
                    varying_special_src=varying[position],
                    scalar_nonreg_srcs=scalar_nonreg[position],
                )
            )
            position += 1
        trace.warps.append(warp)
    return trace


def from_trace(trace: KernelTrace) -> ColumnarTrace:
    """Pack an event-form trace, one one-warp step per event."""
    rows = StepRows([warp.warp_id for warp in trace.warps])
    for position, warp in enumerate(trace.warps):
        warps = np.array([position])
        for event in warp.events:
            rows.append(
                OPCODE_TO_ID[event.opcode],
                -1 if event.dst is None else event.dst,
                event.src_regs,
                warps,
                np.array([event.active_mask], dtype=np.uint64),
                event.block_id,
                None if event.dst_values is None else event.dst_values[None, :],
                None if event.addresses is None else event.addresses[None, :],
                event.varying_special_src,
                event.scalar_nonreg_srcs,
            )
    return ColumnarTrace.pack(trace.kernel_name, trace.warp_size, rows)
