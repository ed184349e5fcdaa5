"""Vectorized batch classification engine.

:func:`repro.scalar.tracker.classify_trace` replays a trace one
:class:`~repro.simt.trace.TraceEvent` at a time, paying Python dispatch
plus several tiny 32-lane numpy calls (``common_prefix_bytes``,
``compress_halves``) per dynamic instruction.  The enc-bit math is
embarrassingly data-parallel across dynamic instructions, so this
module computes all of it as whole-warp-stream array kernels instead:

* one ``(n_writes, warp_size)`` matrix of destination snapshots per
  warp, byte-prefix enc via XOR against lane 0 + OR-reduce across the
  lane axis (:func:`~repro.compression.gscalar.prefix_bytes_batch`),
* half-warp enc pairs via chunked reduces
  (:func:`~repro.compression.half.compress_halves_batch`),
* divergent-write encodings via the masked variant with the lane-mask
  matrix expanded from the integer active masks.

Only the cheap sequential sidecar state machine (register -> last
:class:`~repro.compression.encoding.RegisterEncoding`) remains a Python
loop, working over plain ints.  The output is **bit-identical** to the
per-event tracker: the same :class:`ClassifiedEvent` stream, the same
:class:`TrackerStatistics`, the same telemetry counters (the
differential suite in ``tests/scalar/test_batch.py`` pins this).

Both trace representations are accepted: :func:`classify_trace_batch`
takes the event form (reusing its event objects), while
:func:`classify_columnar_batch` runs straight off a
:class:`~repro.simt.trace.ColumnarTrace` — e.g. a cache hit from
:mod:`repro.simt.serialize` — materializing each event exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.compression.encoding import SCALAR_PREFIX, RegisterEncoding
from repro.compression.gscalar import (
    masked_prefix_bytes_batch,
    prefix_bytes_batch,
)
from repro.compression.half import compress_halves_batch
from repro.errors import TraceError
from repro.isa.opcodes import Opcode, OpCategory, category_of
from repro.obs.instrument import record_classified_warp
from repro.obs.telemetry import get_telemetry
from repro.scalar.eligibility import (
    ScalarClass,
    SourceRead,
    classify_instruction,
)
from repro.scalar.tracker import (
    HALF_GRANULARITY,
    ClassifiedEvent,
    RegisterStateTracker,
)
from repro.simt.trace import (
    ID_TO_OPCODE,
    ColumnarTrace,
    KernelTrace,
    TraceChunk,
    TraceEvent,
    WarpTrace,
)

def _half_granularity(warp_size: int) -> int:
    """The tracker's half size in lanes (16 even for 64-thread warps)."""
    return min(HALF_GRANULARITY, max(1, warp_size // 2))


def _write_encodings(
    values: np.ndarray, masks: np.ndarray, warp_size: int
) -> list[RegisterEncoding]:
    """Destination-side sidecar encodings for one warp's register writes.

    ``values`` is the ``(n_writes, warp_size)`` snapshot matrix in
    write order and ``masks`` the writers' integer active masks.  Full
    writes get the §3.1 prefix + §4.3 half pairs; divergent writes get
    the §4.2 masked prefix with the BVR holding the writer's mask.  All
    heavy math is vectorized over the write axis; the returned list of
    :class:`RegisterEncoding` matches ``RegisterStateTracker``'s
    ``_full_write_state`` / ``_divergent_write_state`` element-wise.
    """
    count = values.shape[0]
    if count == 0:
        return []
    full_mask = (1 << warp_size) - 1
    mask_ints = masks.tolist()
    encodings: list[RegisterEncoding | None] = [None] * count
    # Registers are rewritten with the same value constantly (loop
    # counters, zeros, broadcast constants), so intern the frozen
    # encodings: repeated states share one object and skip the
    # dataclass __init__/__post_init__.  Equality semantics (and hence
    # downstream output) are unchanged — only identity is shared.
    interned: dict[tuple, RegisterEncoding] = {}

    full_rows = [i for i, mask in enumerate(mask_ints) if mask == full_mask]
    if full_rows:
        full_values = values[full_rows]
        enc = prefix_bytes_batch(full_values).tolist()
        halves = compress_halves_batch(
            full_values, granularity=_half_granularity(warp_size)
        )
        base = full_values[:, 0].tolist()
        enc_lo = halves.enc_lo.tolist()
        enc_hi = halves.enc_hi.tolist()
        base_lo = halves.base_lo.tolist()
        base_hi = halves.base_hi.tolist()
        full_scalar = halves.full_scalar.tolist()
        for j, i in enumerate(full_rows):
            key = (
                enc[j],
                base[j],
                enc_lo[j],
                enc_hi[j],
                base_lo[j],
                base_hi[j],
                full_scalar[j],
            )
            encoding = interned.get(key)
            if encoding is None:
                encoding = RegisterEncoding(
                    enc=enc[j],
                    base=base[j],
                    divergent=False,
                    enc_lo=enc_lo[j],
                    enc_hi=enc_hi[j],
                    base_lo=base_lo[j],
                    base_hi=base_hi[j],
                    full_scalar=full_scalar[j],
                )
                interned[key] = encoding
            encodings[i] = encoding

    divergent_rows = [
        i for i, mask in enumerate(mask_ints) if mask != full_mask
    ]
    if divergent_rows:
        divergent_values = values[divergent_rows]
        divergent_masks = masks[divergent_rows].astype(np.uint64)
        lane_masks = (
            (divergent_masks[:, None] >> np.arange(warp_size, dtype=np.uint64))
            & np.uint64(1)
        ).astype(bool)
        enc = masked_prefix_bytes_batch(divergent_values, lane_masks).tolist()
        for j, i in enumerate(divergent_rows):
            key = (enc[j], mask_ints[i])
            encoding = interned.get(key)
            if encoding is None:
                encoding = RegisterEncoding(
                    enc=enc[j], base=mask_ints[i], divergent=True
                )
                interned[key] = encoding
            encodings[i] = encoding
    return encodings  # type: ignore[return-value]


_UNCOMPRESSED = RegisterEncoding.uncompressed()

#: Pipeline category per opcode *value*, precomputed once (saves a
#: function call plus set probes per dynamic instruction in the sidecar
#: loop; keyed by the value string because str hashes are cached while
#: ``Enum.__hash__`` is a Python-level call).
_CATEGORY: dict[str, OpCategory] = {
    opcode.value: category_of(opcode) for opcode in Opcode
}


def _classify_events(
    events: list[TraceEvent],
    write_encodings: list[RegisterEncoding],
    warp_size: int,
    state: dict[int, RegisterEncoding] | None = None,
    read_cache: (
        dict[int, tuple[RegisterEncoding, int | None, SourceRead]] | None
    ) = None,
) -> list[ClassifiedEvent]:
    """The slim sequential sidecar loop over one warp's events.

    ``write_encodings`` carries the precomputed destination encoding of
    each register-writing event, in event order; everything left here
    is integer compares, dict lookups and object assembly.
    :func:`classify_source_read` and :func:`classify_instruction` are
    inlined (their results fold into the same pass that assembles the
    source tuple), and :class:`SourceRead` objects are reused while the
    source register's sidecar state is unchanged — both transparent to
    the output, which stays field-identical to the per-event tracker.

    ``state`` / ``read_cache`` (optional) resume a warp split across
    chunk boundaries: the chunked classifier passes the dicts carried
    from the previous fragment and this pass mutates them in place, so
    the next fragment continues exactly where this one stopped.  Fresh
    dicts (the default) give whole-warp behavior, unchanged.
    """
    full_mask = (1 << warp_size) - 1
    if state is None:
        state = {}
    state_get = state.get
    # register -> (encoding identity, reader mask or None, SourceRead);
    # reads of an unchanged register rebuild nothing.  The mask only
    # matters for divergently-written sources (§4.2's BVR comparison).
    if read_cache is None:
        read_cache = {}
    cache_get = read_cache.get
    classified: list[ClassifiedEvent] = []
    append = classified.append
    write_cursor = 0
    categories = _CATEGORY
    not_eligible = ScalarClass.NOT_ELIGIBLE
    half_scalar = ScalarClass.HALF_SCALAR
    divergent_scalar = ScalarClass.DIVERGENT_SCALAR
    ctrl = OpCategory.CTRL
    sfu = OpCategory.SFU
    mem = OpCategory.MEM

    for event in events:
        mask = event.active_mask
        divergent = mask != full_mask

        all_scalar = all_lo = all_hi = True
        sources = []
        sources_append = sources.append
        for register in event.src_regs:
            encoding = state_get(register, _UNCOMPRESSED)
            cached = cache_get(register)
            if (
                cached is not None
                and cached[0] is encoding
                and (cached[1] is None or cached[1] == (divergent, mask))
            ):
                read = cached[2]
                scalar = read.scalar_for_read
                lo_scalar = read.lo_scalar
                hi_scalar = read.hi_scalar
            else:
                # Inlined classify_source_read (§4.1/§4.2): plain int
                # compares against the sidecar state.
                if encoding.divergent:
                    scalar = (
                        divergent
                        and encoding.enc == SCALAR_PREFIX
                        and encoding.base == mask
                    )
                    lo_scalar = hi_scalar = False
                    cache_key = (divergent, mask)
                else:
                    scalar = encoding.enc == SCALAR_PREFIX
                    lo_scalar = encoding.enc_lo == SCALAR_PREFIX
                    hi_scalar = encoding.enc_hi == SCALAR_PREFIX
                    cache_key = None
                read = SourceRead(
                    register, encoding, scalar, lo_scalar, hi_scalar
                )
                read_cache[register] = (encoding, cache_key, read)
            sources_append(read)
            if not scalar:
                all_scalar = False
            if not lo_scalar:
                all_lo = False
            if not hi_scalar:
                all_hi = False
        sources_tuple = tuple(sources)

        # Inlined classify_instruction: same Figure 9 bucketing, with
        # the all()-over-sources folds already computed above.
        category = categories[event.opcode.value]
        lo_ok = hi_ok = False
        if category is ctrl or event.varying_special_src:
            scalar_class = not_eligible
        elif divergent:
            scalar_class = divergent_scalar if all_scalar else not_eligible
        elif all_scalar:
            if category is sfu:
                scalar_class = ScalarClass.SFU_SCALAR
            elif category is mem:
                scalar_class = ScalarClass.MEM_SCALAR
            else:
                scalar_class = ScalarClass.ALU_SCALAR
        elif all_lo or all_hi:
            scalar_class = half_scalar
            lo_ok = all_lo
            hi_ok = all_hi
        else:
            scalar_class = not_eligible

        dst_before: RegisterEncoding | None = None
        dst_after: RegisterEncoding | None = None
        needs_move = False
        if event.dst is not None and event.dst_values is not None:
            dst_before = state_get(event.dst, _UNCOMPRESSED)
            dst_after = write_encodings[write_cursor]
            write_cursor += 1
            if divergent:
                needs_move = not dst_before.divergent and dst_before.enc > 0
            state[event.dst] = dst_after

        append(
            ClassifiedEvent(
                event,
                scalar_class,
                divergent,
                sources_tuple,
                dst_after,
                dst_before,
                needs_move,
                lo_ok,
                hi_ok,
            )
        )
    return classified


def _classify_warp_events(
    events: list[TraceEvent], warp_size: int, num_registers: int
) -> list[ClassifiedEvent]:
    """Batch-classify one warp's event list."""
    if warp_size % 2 != 0:
        # Odd warp sizes cannot form half-register pairs; delegate to
        # the per-event tracker so error behavior stays identical.
        tracker = RegisterStateTracker(num_registers, warp_size)
        return [tracker.classify(event) for event in events]
    write_rows = [
        event.dst_values
        for event in events
        if event.dst is not None and event.dst_values is not None
    ]
    if write_rows:
        values = np.ascontiguousarray(np.stack(write_rows), dtype=np.uint32)
        masks = np.fromiter(
            (
                event.active_mask
                for event in events
                if event.dst is not None and event.dst_values is not None
            ),
            dtype=np.uint64,
            count=len(write_rows),
        )
        encodings = _write_encodings(values, masks, warp_size)
    else:
        encodings = []
    return _classify_events(events, encodings, warp_size)


def classify_trace_batch(
    trace: KernelTrace, num_registers: int
) -> list[list[ClassifiedEvent]]:
    """Batch-classify an event-form trace (fresh sidecar per warp).

    Drop-in replacement for
    :func:`repro.scalar.tracker.classify_trace`: identical output,
    identical telemetry, ~an order of magnitude less per-event work.
    The destination-encoding math runs as **one** whole-trace batch:
    every warp's register writes are stacked into a single matrix so
    the array kernels amortize their dispatch over the full launch
    (per-warp sidecar replay is unaffected — each warp still gets a
    fresh state machine over its own slice of the encodings).
    """
    if num_registers < 0:
        raise TraceError(f"num_registers must be >= 0, got {num_registers}")
    telemetry = get_telemetry()
    warp_size = trace.warp_size
    classified: list[list[ClassifiedEvent]] = []
    with telemetry.span(
        f"classify:{trace.kernel_name}", cat="kernel", kernel=trace.kernel_name
    ):
        if warp_size % 2 != 0:
            for warp in trace.warps:
                events = _classify_warp_events(
                    warp.events, warp_size, num_registers
                )
                classified.append(events)
                if telemetry.enabled:
                    record_classified_warp(telemetry, events, warp_size)
            return classified

        write_rows: list[np.ndarray] = []
        write_masks: list[int] = []
        warp_write_counts: list[int] = []
        for warp in trace.warps:
            start = len(write_rows)
            for event in warp.events:
                if event.dst is not None and event.dst_values is not None:
                    write_rows.append(event.dst_values)
                    write_masks.append(event.active_mask)
            warp_write_counts.append(len(write_rows) - start)
        if write_rows:
            encodings = _write_encodings(
                np.ascontiguousarray(np.stack(write_rows), dtype=np.uint32),
                np.array(write_masks, dtype=np.uint64),
                warp_size,
            )
        else:
            encodings = []

        cursor = 0
        for warp, count in zip(trace.warps, warp_write_counts):
            events = _classify_events(
                warp.events, encodings[cursor : cursor + count], warp_size
            )
            cursor += count
            classified.append(events)
            if telemetry.enabled:
                record_classified_warp(telemetry, events, warp_size)
    return classified


def classify_columnar_batch(
    columnar: ColumnarTrace, num_registers: int
) -> tuple[KernelTrace, list[list[ClassifiedEvent]]]:
    """Batch-classify straight off the columnar arrays.

    Returns ``(trace, classified)`` where ``trace`` is the event form
    materialized exactly once — each :class:`TraceEvent` is shared
    between the returned trace and the classified stream, and snapshot
    rows are views into the columnar value matrix (nothing downstream
    mutates them), so a cache hit pays one object per event instead of
    a reconstruct-then-classify double pass.
    """
    if num_registers < 0:
        raise TraceError(f"num_registers must be >= 0, got {num_registers}")
    warp_size = columnar.warp_size
    telemetry = get_telemetry()
    trace = KernelTrace(kernel_name=columnar.kernel_name, warp_size=warp_size)
    classified: list[list[ClassifiedEvent]] = []

    opcode_ids = columnar.opcode_ids.tolist()
    dst = columnar.dst.tolist()
    mask_ints = columnar.masks.tolist()
    blocks = columnar.blocks.tolist()
    varying = columnar.varying.tolist()
    scalar_nonreg = columnar.scalar_nonreg.tolist()
    src_offsets = columnar.src_offsets.tolist()
    src_flat = columnar.src_flat.tolist()
    values_index = columnar.values_index.tolist()
    addr_index = columnar.addr_index.tolist()
    values_matrix = columnar.values
    addresses_matrix = columnar.addresses
    lane_limit = 1 << warp_size

    if warp_size % 2 == 0 and columnar.num_events:
        # One whole-trace encoding batch: the write rows of every warp
        # in one matrix, sliced back per warp below via searchsorted.
        write_positions_all = np.flatnonzero(
            (columnar.dst >= 0) & (columnar.values_index >= 0)
        )
        if write_positions_all.size:
            all_encodings = _write_encodings(
                np.ascontiguousarray(
                    values_matrix[columnar.values_index[write_positions_all]],
                    dtype=np.uint32,
                ),
                columnar.masks[write_positions_all],
                warp_size,
            )
        else:
            all_encodings = []
    else:
        write_positions_all = np.empty(0, dtype=np.int64)
        all_encodings = []

    with telemetry.span(
        f"classify:{columnar.kernel_name}",
        cat="kernel",
        kernel=columnar.kernel_name,
    ):
        for warp_id, segment in columnar.warp_slices():
            events: list[TraceEvent] = []
            for position in range(segment.start, segment.stop):
                mask = mask_ints[position]
                if mask >= lane_limit:
                    raise TraceError(
                        f"event mask {mask:#x} wider than warp size "
                        f"{warp_size}"
                    )
                value_row = values_index[position]
                addr_row = addr_index[position]
                events.append(
                    TraceEvent(
                        opcode=ID_TO_OPCODE[opcode_ids[position]],
                        dst=None if dst[position] < 0 else dst[position],
                        src_regs=tuple(
                            src_flat[
                                src_offsets[position]:src_offsets[position + 1]
                            ]
                        ),
                        active_mask=mask,
                        block_id=blocks[position],
                        dst_values=values_matrix[value_row]
                        if value_row >= 0
                        else None,
                        addresses=addresses_matrix[addr_row]
                        if addr_row >= 0
                        else None,
                        varying_special_src=varying[position],
                        scalar_nonreg_srcs=scalar_nonreg[position],
                    )
                )
            warp = WarpTrace(
                warp_id=warp_id, warp_size=warp_size, events=events
            )
            trace.warps.append(warp)

            if warp_size % 2 != 0:
                classified_warp = _classify_warp_events(
                    events, warp_size, num_registers
                )
            else:
                lo = int(
                    np.searchsorted(write_positions_all, segment.start, "left")
                )
                hi = int(
                    np.searchsorted(write_positions_all, segment.stop, "left")
                )
                classified_warp = _classify_events(
                    events, all_encodings[lo:hi], warp_size
                )
            classified.append(classified_warp)
            if telemetry.enabled:
                record_classified_warp(telemetry, classified_warp, warp_size)
    return trace, classified


class ClassifierCarry:
    """Per-warp sidecar state threaded between trace chunks.

    The batch classifier's only sequential state is per-warp: the
    register -> :class:`RegisterEncoding` sidecar map (BVR/EBR contents)
    and the identity-keyed read cache of :func:`_classify_events`, plus
    the warp's last scalar class (telemetry's consecutive-class
    transition counter spans chunk boundaries).  The carry keys them by
    *global* warp index; completed warps are dropped eagerly so the
    carry holds at most one split warp between chunks.  Odd warp sizes
    delegate to the per-event tracker, whose whole state machine is
    carried instead.
    """

    def __init__(self) -> None:
        self.states: dict[int, dict[int, RegisterEncoding]] = {}
        self.read_caches: dict[
            int, dict[int, tuple[RegisterEncoding, int | None, SourceRead]]
        ] = {}
        self.trackers: dict[int, RegisterStateTracker] = {}
        self.last_class: dict[int, str | None] = {}


def classify_columnar_chunk(
    chunk: TraceChunk,
    num_registers: int,
    carry: ClassifierCarry,
) -> list[list[ClassifiedEvent]]:
    """Batch-classify one :class:`~repro.simt.trace.TraceChunk`.

    The chunk-streaming counterpart of :func:`classify_columnar_batch`:
    same per-chunk whole-batch encoding math, same sequential sidecar
    loop — but warps cut by a chunk boundary resume from the carried
    ``state``/``read_cache`` dicts instead of starting fresh, so
    concatenating every chunk's fragments reproduces the whole-trace
    classified stream bit-for-bit.  Returns one event-fragment list per
    warp present in the chunk (split warps contribute one fragment per
    chunk they span); the event form is *not* accumulated — per-event
    Python objects live only as long as the chunk's fragments do.
    """
    if num_registers < 0:
        raise TraceError(f"num_registers must be >= 0, got {num_registers}")
    columnar = chunk.columnar
    warp_size = columnar.warp_size
    telemetry = get_telemetry()
    classified: list[list[ClassifiedEvent]] = []

    opcode_ids = columnar.opcode_ids.tolist()
    dst = columnar.dst.tolist()
    mask_ints = columnar.masks.tolist()
    blocks = columnar.blocks.tolist()
    varying = columnar.varying.tolist()
    scalar_nonreg = columnar.scalar_nonreg.tolist()
    src_offsets = columnar.src_offsets.tolist()
    src_flat = columnar.src_flat.tolist()
    values_index = columnar.values_index.tolist()
    addr_index = columnar.addr_index.tolist()
    values_matrix = columnar.values
    addresses_matrix = columnar.addresses
    lane_limit = 1 << warp_size

    if warp_size % 2 == 0 and columnar.num_events:
        write_positions_all = np.flatnonzero(
            (columnar.dst >= 0) & (columnar.values_index >= 0)
        )
        if write_positions_all.size:
            all_encodings = _write_encodings(
                np.ascontiguousarray(
                    values_matrix[columnar.values_index[write_positions_all]],
                    dtype=np.uint32,
                ),
                columnar.masks[write_positions_all],
                warp_size,
            )
        else:
            all_encodings = []
    else:
        write_positions_all = np.empty(0, dtype=np.int64)
        all_encodings = []

    num_warps = columnar.num_warps
    for local, (_, segment) in enumerate(columnar.warp_slices()):
        global_warp = chunk.warp_start + local
        continued = local == 0 and chunk.first_warp_continued
        continues = local == num_warps - 1 and chunk.last_warp_continues
        events: list[TraceEvent] = []
        for position in range(segment.start, segment.stop):
            mask = mask_ints[position]
            if mask >= lane_limit:
                raise TraceError(
                    f"event mask {mask:#x} wider than warp size {warp_size}"
                )
            value_row = values_index[position]
            addr_row = addr_index[position]
            events.append(
                TraceEvent(
                    opcode=ID_TO_OPCODE[opcode_ids[position]],
                    dst=None if dst[position] < 0 else dst[position],
                    src_regs=tuple(
                        src_flat[
                            src_offsets[position]:src_offsets[position + 1]
                        ]
                    ),
                    active_mask=mask,
                    block_id=blocks[position],
                    dst_values=values_matrix[value_row]
                    if value_row >= 0
                    else None,
                    addresses=addresses_matrix[addr_row]
                    if addr_row >= 0
                    else None,
                    varying_special_src=varying[position],
                    scalar_nonreg_srcs=scalar_nonreg[position],
                )
            )

        if warp_size % 2 != 0:
            tracker = carry.trackers.pop(global_warp, None) if continued else None
            if tracker is None:
                tracker = RegisterStateTracker(num_registers, warp_size)
            fragment = [tracker.classify(event) for event in events]
            if continues:
                carry.trackers[global_warp] = tracker
        else:
            state = carry.states.pop(global_warp, None) if continued else None
            read_cache = (
                carry.read_caches.pop(global_warp, None) if continued else None
            )
            if state is None:
                state = {}
            if read_cache is None:
                read_cache = {}
            lo = int(
                np.searchsorted(write_positions_all, segment.start, "left")
            )
            hi = int(
                np.searchsorted(write_positions_all, segment.stop, "left")
            )
            fragment = _classify_events(
                events, all_encodings[lo:hi], warp_size, state, read_cache
            )
            if continues:
                carry.states[global_warp] = state
                carry.read_caches[global_warp] = read_cache
        classified.append(fragment)
        if telemetry.enabled:
            previous = (
                carry.last_class.pop(global_warp, None) if continued else None
            )
            last = record_classified_warp(
                telemetry, fragment, warp_size, previous_class=previous
            )
            if continues:
                carry.last_class[global_warp] = last
    return classified
