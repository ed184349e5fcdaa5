"""Per-event timing-op lowering: the reference of the op-table lowering.

:func:`build_timing_ops` lowers one warp's
:class:`~tests.reference.interpret.ProcessedEvent` stream into
:class:`TimingOp` records, one Python object per op;
:func:`repro.timing.ops.build_timing_ops_columns` is the vectorized
production form.  :func:`to_ops` and :func:`from_ops` convert exactly
between a :class:`~repro.timing.ops.TimingOpTable` and per-warp op
lists, which is also what the cycle-level
:class:`~tests.reference.sm.SmSimulator` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.errors import TimingError
from repro.isa.opcodes import LONG_LATENCY_ALU, OpCategory, Opcode, is_store
from repro.scalar.columns import CATEGORY_TO_CODE, CODE_TO_CATEGORY
from repro.simt.grid import int_to_mask
from repro.timing.gpu import simulate_warp_ops
from repro.timing.ops import SCALAR_RF_BANK, SEGMENT_BYTES, TimingOpTable, _offsets
from repro.timing.sm import TimingResult

from tests.reference.interpret import ProcessedEvent


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


def to_ops(table: TimingOpTable) -> list[list[TimingOp]]:
    """The ops of a :class:`TimingOpTable` as per-warp :class:`TimingOp` lists."""
    regs = table.src_regs.tolist()
    banks = table.src_banks.tolist()
    src = table.src_offsets.tolist()
    segments = table.segments.tolist()
    seg = table.seg_offsets.tolist()
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
                table.category_codes.tolist(),
                table.dst.tolist(),
                table.dispatch_cycles.tolist(),
                table.long_latency.tolist(),
                table.is_store.tolist(),
                table.is_shared_mem.tolist(),
                table.inserted.tolist(),
                table.is_barrier.tolist(),
            )
        )
    ]
    bounds = table.warp_bounds().tolist()
    return [ops[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def from_ops(warp_ops: list[list[TimingOp]]) -> TimingOpTable:
    """Pack per-warp :class:`TimingOp` lists (inverse of :func:`to_ops`)."""
    ops = [op for warp in warp_ops for op in warp]
    if any(len(op.src_banks) != len(op.src_regs) for op in ops):
        raise TimingError("every TimingOp needs one bank per source register")
    return TimingOpTable(
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


def lower_to_timing_ops(
    processed: list[list[ProcessedEvent]],
    arch: ArchitectureConfig,
    config: GpuConfig,
    warp_size: int,
) -> list[list[TimingOp]]:
    """Lower every warp's processed events to timing ops."""
    return [
        build_timing_ops(warp_events, arch, config, warp_size)
        for warp_events in processed
    ]


def simulate_architecture(
    processed: list[list[ProcessedEvent]],
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warp_size: int = 32,
    warps_per_cta: int | None = None,
    recorder=None,
) -> TimingResult:
    """Run the SM timing model for one architecture's processed trace.

    ``warps_per_cta`` enables CTA-barrier coordination for kernels that
    use ``bar.sync``; without it each warp is treated as its own CTA.
    ``recorder`` (a :class:`repro.obs.timeline.FlightRecorder`) opts
    into per-warp lifecycle recording.
    """
    config = config or GpuConfig()
    warp_ops = lower_to_timing_ops(processed, arch, config, warp_size)
    return simulate_warp_ops(
        from_ops(warp_ops),
        arch,
        config,
        warps_per_cta=warps_per_cta,
        recorder=recorder,
    )
