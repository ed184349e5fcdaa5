"""Event-driven SM timing engine.

:class:`EventSmSimulator` runs a :class:`~repro.timing.ops.TimingOpTable`
(the output of :func:`~repro.timing.ops.build_timing_ops_columns`),
compiling its columns straight into flat per-op rows as CTAs activate.
Over the same ops, the cycle-level ``SmSimulator`` reference in
``tests/reference`` produces a **bit-identical**
:class:`~repro.timing.sm.TimingResult` — cycles, instruction counts,
memory counters, per-scheduler issue counts, bank conflict counters and
per-scheduler stall-cause attributions all match exactly (the
differential suite pins this on all 17 workloads × 5 architectures).
What differs is how time advances:

* the cycle model *rescans* every warp slot, collector and pipeline
  port once per cycle — O(resident warps) of scoreboard checks per
  simulated cycle, which is why it dominated pipeline wall-clock;
* this engine is *event-driven*: warp readiness is updated only when an
  event can change it (a write-back releasing a register, a branch
  resolving, a barrier releasing its CTA, an issue advancing the PC, a
  warp activating).  Idle stretches are skipped wholesale to the next
  write-back or port-release event, exactly where the reference model
  skips them.

The per-cycle state is kept in the cheapest form each check needs:

* **compiled rows** exist only for warps near residency: activation
  compiles whole CTAs a block at a time (at least
  ``_COMPILE_BLOCK_ROWS`` table rows, so a small table compiles in one
  call) and retirement drops a warp's rows, so the engine's Python
  objects are bounded by the resident CTAs plus one block rather than
  by the table — there is no whole-table compile before cycle 0;
* **scoreboards** are one int per warp with bit *r* set while register
  *r* is in flight; each compiled row carries a *hazard mask* (its
  destination OR its sources, interned across compile blocks so equal
  rows share one int), so an op is scoreboard-ready when the two ints
  do not intersect;
* **ready sets** are one bitmask per scheduler over its partition
  positions (slot *s* is bit ``s // n`` of scheduler ``s % n``): GTO
  tests the last-issued slot's bit, else takes the lowest bit; LRR
  takes the lowest bit at or after the rotation, else the lowest;
* each scheduler's **stall cause** is cached and recomputed only after
  a slot in its partition changed (activation, issue, branch
  write-back, barrier wake-up, retirement) — nothing else can change
  it;
* each pipeline-port group keeps its **earliest free time**, so
  dispatch skips a saturated group without scanning its ports;
* operand collection and dispatch are **one issue-ordered pass** over
  the collectors: each serves its bank reads (one request per bank per
  cycle) and, once bank-complete, dispatches to a free port;
* **write-backs** sit in a timing wheel: one list per completion cycle,
  appended in dispatch order, with a heap of the cycles that have one.

Per-cycle work is therefore proportional to the events of that cycle
rather than to machine size.  This engine is the only one the runner
uses.  The cycle model is its differential oracle: tests run it over
the same table's ops (``tests/timing/test_engine_gate.py`` is the CI
gate).

Semantics replicated from the reference (same event order per cycle):
write-backs, then operand collection (one request per bank per cycle,
earlier collectors first, the single scalar-RF bank serialized exactly
as in §4.1), then dispatch of bank-complete collectors to free pipeline
ports, then issue (one warp per scheduler, GTO or LRR), then
whole-CTA (GigaThread-style) retirement/activation.  G-Scalar's
+3-cycle stretch enters through ``extra_latency``, exactly as in the
reference.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.isa.opcodes import OpCategory
from repro.scalar.columns import CATEGORY_TO_CODE, CTRL_CODE
from repro.timing.memory import MemoryModel
from repro.timing.ops import SCALAR_RF_BANK, TimingOpTable
from repro.timing.scheduler import partition_slots
from repro.timing.sm import (
    _BLOCKED_ON_BARRIER,
    _BLOCKED_ON_BRANCH,
    STALL_BANK_CONFLICT,
    STALL_BARRIER,
    STALL_BRANCH_SHADOW,
    STALL_CAUSES,
    STALL_COLLECTORS_FULL,
    STALL_SCOREBOARD,
    STALL_STREAM_EXHAUSTED,
    StallBreakdown,
    TimingResult,
)

# Pipeline-port groups (index into the per-group port lists).
_PORT_ALU = 0
_PORT_MEM = 1
_PORT_SFU = 2
_ALU_CODE = CATEGORY_TO_CODE[OpCategory.ALU]

#: OpCategory.name per port group, for flight-recorder labels (CTRL is
#: distinguished by the compiled row's _IS_CTRL flag).
_PORT_CATEGORY_NAMES = ("ALU", "MEM", "SFU")

# Compiled-op tuple layout (one tuple per table row; plain tuples index
# faster than array or attribute access in the hot loop).
_DST_BIT = 0  # scoreboard bit of the destination register; 0 for none
_HAZARD = 1  # scoreboard bits of the destination and every source
_SRC_BANKS = 2
_DISPATCH = 3
_PORT = 4
_DELTA = 5  # dispatch + write-back latency + extra latency; -1 for MEM
_IS_CTRL = 6
_IS_BARRIER = 7
_INSERTED = 8
_MEM_SEGMENTS = 9
_IS_SHARED = 10
_IS_STORE = 11

#: Fewest table rows one compile block holds (unless the table runs
#: out): activation compiles whole CTAs up to this floor at a time.
_COMPILE_BLOCK_ROWS = 16384

#: Registers per NumPy word while hazard masks are built.
_WORD_BITS = 64


def _ragged_tuples(values, offsets, lo: int, hi: int) -> list[tuple]:
    """Rows ``lo:hi`` of a ragged table as one tuple each."""
    bounds = offsets[lo : hi + 1]
    flat = values[bounds[0] : bounds[-1]].tolist()
    bounds = (bounds - bounds[0]).tolist()
    return [
        tuple(flat[start:end]) if start != end else ()
        for start, end in zip(bounds, bounds[1:])
    ]


def _register_masks(
    table: TimingOpTable, lo: int, hi: int, interned: dict[int, int]
) -> tuple[list[int], list[int]]:
    """Rows ``lo:hi``'s destination bits and hazard masks as ints.

    Bit *r* stands for register *r*; a row's hazard mask is its
    destination bit OR its source bits.  The masks are assembled from
    one ``uint64`` column per 64 registers, and equal ints share one
    object through ``interned``, so rows cost a pointer per mask.
    """
    dst = table.dst[lo:hi].astype(np.int64)
    bounds = table.src_offsets[lo : hi + 1]
    regs = table.src_regs[bounds[0] : bounds[-1]].astype(np.int64)
    owner = np.repeat(np.arange(dst.shape[0]), np.diff(bounds))
    top = max(int(dst.max(initial=-1)), int(regs.max(initial=-1)), 0)
    one = np.uint64(1)
    dst_bits: list[int] = []
    hazards: list[int] = []
    for base in range(0, top + 1, _WORD_BITS):
        word_dst = np.zeros(dst.shape[0], dtype=np.uint64)
        here = (dst >= base) & (dst < base + _WORD_BITS)
        word_dst[here] = one << (dst[here] - base).astype(np.uint64)
        word_hazard = word_dst.copy()
        here = (regs >= base) & (regs < base + _WORD_BITS)
        np.bitwise_or.at(
            word_hazard, owner[here], one << (regs[here] - base).astype(np.uint64)
        )
        if base == 0:
            dst_bits, hazards = word_dst.tolist(), word_hazard.tolist()
        else:
            dst_bits = [m | w << base for m, w in zip(dst_bits, word_dst.tolist())]
            hazards = [m | w << base for m, w in zip(hazards, word_hazard.tolist())]
    intern = interned.setdefault
    return [intern(m, m) for m in dst_bits], [intern(m, m) for m in hazards]


class EventSmSimulator:
    """Event-driven simulation of one SM running fixed warps to completion.

    Constructor and run() mirror the cycle-level reference
    ``SmSimulator``, with a :class:`~repro.timing.ops.TimingOpTable` in
    place of per-warp op lists; see the module docstring for how the
    two engines relate.
    """

    def __init__(
        self,
        table: TimingOpTable,
        config: GpuConfig,
        extra_latency: int = 0,
        memory: MemoryModel | None = None,
        warps_per_cta: int | None = None,
        recorder=None,
    ):
        if extra_latency < 0:
            raise TimingError(f"extra_latency must be >= 0, got {extra_latency}")
        if warps_per_cta is not None and warps_per_cta < 1:
            raise TimingError(f"warps_per_cta must be >= 1, got {warps_per_cta}")
        self.table = table
        self.config = config
        self.extra_latency = extra_latency
        self.recorder = recorder
        self.warps_per_cta = warps_per_cta or 1
        self.memory = memory or MemoryModel(
            l1_size_bytes=config.l1_cache_bytes,
            l2_share_bytes=max(8 * 1024, config.l2_cache_bytes // config.num_sms),
        )
        self.num_warps = len(table.warp_lengths)
        self.max_resident = min(config.max_warps_per_sm, self.num_warps)
        if self.num_warps and min(self.warps_per_cta, self.num_warps) > self.max_resident:
            raise TimingError(
                f"warps_per_cta={self.warps_per_cta} exceeds the SM's "
                f"{self.max_resident}-warp residency; one CTA can never "
                "be resident at once"
            )

    # ------------------------------------------------------------------
    def _compile_rows(self, lo: int, hi: int, interned: dict[int, int]) -> list[tuple]:
        """Pre-resolve table rows ``lo:hi``'s static timing facts into
        flat tuples, straight from the table's columns.

        ``interned`` shares equal hazard masks between calls, so a run
        that compiles block by block holds one int per distinct mask.
        """
        table = self.table
        config = self.config
        # Pipeline port and write-back latency per category code; a MEM
        # op's latency comes from the memory model at dispatch.
        port_of = np.zeros(len(CATEGORY_TO_CODE), dtype=np.int64)
        latency_of = np.zeros(len(CATEGORY_TO_CODE), dtype=np.int64)
        for category, code in CATEGORY_TO_CODE.items():
            port_of[code], latency_of[code] = {
                OpCategory.ALU: (_PORT_ALU, config.alu_latency),
                OpCategory.CTRL: (_PORT_ALU, config.ctrl_latency),
                OpCategory.MEM: (_PORT_MEM, 0),
                OpCategory.SFU: (_PORT_SFU, config.sfu_latency),
            }[category]
        codes = table.category_codes[lo:hi]
        port = port_of[codes]
        latency = np.where(
            table.long_latency[lo:hi] & (codes == _ALU_CODE),
            config.long_alu_latency,
            latency_of[codes],
        )
        delta = np.where(
            port == _PORT_MEM,
            -1,
            table.dispatch_cycles[lo:hi] + latency + self.extra_latency,
        )
        dst_bits, hazards = _register_masks(table, lo, hi, interned)
        return list(
            zip(
                dst_bits,
                hazards,
                _ragged_tuples(table.src_banks, table.src_offsets, lo, hi),
                table.dispatch_cycles[lo:hi].tolist(),
                port.tolist(),
                delta.tolist(),
                (codes == CTRL_CODE).tolist(),
                table.is_barrier[lo:hi].tolist(),
                table.inserted[lo:hi].tolist(),
                _ragged_tuples(table.segments, table.seg_offsets, lo, hi),
                table.is_shared_mem[lo:hi].tolist(),
                table.is_store[lo:hi].tolist(),
            )
        )

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> TimingResult:
        config = self.config
        num_warps = self.num_warps
        if num_warps == 0:
            return TimingResult(cycles=0, instructions=0, memory_counts=self.memory.counts)

        table = self.table
        oplen = table.warp_lengths.tolist()
        bounds = table.warp_bounds().tolist()
        # A warp's compiled rows, from just before its CTA activates
        # until it retires (None outside that span).
        compiled: list[list[tuple] | None] = [None] * num_warps
        interned: dict[int, int] = {}
        warps_per_cta = self.warps_per_cta
        extra = self.extra_latency
        memory = self.memory
        access_global = memory.access_global
        access_shared = memory.access_shared

        num_schedulers = config.schedulers_per_sm
        policy_gto = config.scheduler_policy is SchedulerPolicy.GTO
        if not policy_gto and config.scheduler_policy is not SchedulerPolicy.LRR:
            raise TimingError(f"unknown scheduler policy {config.scheduler_policy}")
        max_resident = self.max_resident
        max_collectors = config.operand_collectors_per_sm

        pcs = [0] * num_warps
        # Bit r set while register r has a write in flight.  The hazard
        # mask holds the destination, so a register never has two.
        scoreboards = [0] * num_warps
        blocked_until = [0] * num_warps
        in_flight = [0] * num_warps
        remaining = num_warps

        slot_warp = [-1] * max_resident  # slot -> warp (-1 = empty)
        warp_slot = [-1] * num_warps  # warp -> slot (-1 = not resident)
        free_slots = list(range(max_resident))  # min-heap

        # Slot s belongs to scheduler s % num_schedulers (the static
        # parity partition the reference builds via partition_warps)
        # and is bit s // num_schedulers of that scheduler's masks.
        slot_scheduler = [slot % num_schedulers for slot in range(max_resident)]
        slot_bit = [1 << (slot // num_schedulers) for slot in range(max_resident)]
        ready_masks = [0] * num_schedulers
        partition_sizes = [
            len(range(i, max_resident, num_schedulers)) for i in range(num_schedulers)
        ]
        last_bits = [0] * num_schedulers  # GTO: last-issued slot's bit
        rr_pos = [0] * num_schedulers
        # Cached classify_stall result per scheduler; -1 once a slot of
        # its partition changed.
        causes = [-1] * num_schedulers

        # Collector entries are [warp, pending_banks, compiled_row] in
        # issue order.
        collectors: list[list] = []
        alu_ports = [0] * config.alu_pipelines
        mem_ports = [0] * config.mem_pipelines
        sfu_ports = [0] * config.sfu_pipelines
        port_groups = (alu_ports, mem_ports, sfu_ports)
        group_free = [0] * len(port_groups)  # earliest free port per group

        # Write-back timing wheel: completion cycle -> [(warp, row)] in
        # dispatch order, plus a min-heap of the cycles present.
        wheel: dict[int, list[tuple[int, tuple]]] = {}
        wheel_cycles: list[int] = []
        wakeups: list[tuple[int, int]] = []  # (cycle, warp) barrier releases
        barrier_arrived: dict[int, set[int]] = {}
        retirable: set[int] = set()

        issued_counts = [0] * num_schedulers
        scalar_conflicts = 0
        bank_conflict_cycles = 0
        instructions = 0
        useful_instructions = 0
        recorder = self.recorder
        # Per-scheduler stall-cause accumulators (STALL_* indexed);
        # ``cycle_causes`` remembers the current cycle's attribution so
        # skipped-ahead dead cycles replay it — state is frozen across
        # a skip, so every dead cycle stalls for the same reasons.
        stall_counts = [[0] * len(STALL_CAUSES) for _ in range(num_schedulers)]
        cycle_causes = [STALL_STREAM_EXHAUSTED] * num_schedulers

        def classify_stall(scheduler_index: int) -> int:
            """Attribute one idle scheduler-cycle to its strongest cause.

            Identical semantics (and precedence order) to the reference
            model's classifier: scan the scheduler's slot partition and
            pick the lowest STALL_* index present — scoreboard over
            branch shadow over barrier over stream exhaustion.
            """
            cause = STALL_STREAM_EXHAUSTED
            for slot in partition_slots(scheduler_index, max_resident, num_schedulers):
                warp = slot_warp[slot]
                if warp < 0 or pcs[warp] >= oplen[warp]:
                    continue
                until = blocked_until[warp]
                if until == _BLOCKED_ON_BRANCH:
                    if STALL_BRANCH_SHADOW < cause:
                        cause = STALL_BRANCH_SHADOW
                elif until > cycle:
                    if STALL_BARRIER < cause:
                        cause = STALL_BARRIER
                else:
                    return STALL_SCOREBOARD
            return cause

        def compile_ctas(first: int) -> None:
            """Compile whole CTAs from warp ``first`` on, until the block
            holds at least ``_COMPILE_BLOCK_ROWS`` rows or none are left."""
            lo = bounds[first]
            last = first
            while last < num_warps and bounds[last] - lo < _COMPILE_BLOCK_ROWS:
                last = min(last + warps_per_cta, num_warps)
            rows = self._compile_rows(lo, bounds[last], interned)
            for warp in range(first, last):
                compiled[warp] = rows[bounds[warp] - lo : bounds[warp + 1] - lo]

        def activate_ctas() -> None:
            """GigaThread-style activation: whole CTAs, lowest slots first."""
            nonlocal next_warp_to_activate
            while next_warp_to_activate < num_warps:
                cta_size = min(warps_per_cta, num_warps - next_warp_to_activate)
                if cta_size > len(free_slots):
                    break
                if compiled[next_warp_to_activate] is None:
                    compile_ctas(next_warp_to_activate)
                for _ in range(cta_size):
                    slot = heappop(free_slots)
                    warp = next_warp_to_activate
                    slot_warp[slot] = warp
                    warp_slot[warp] = slot
                    if recorder is not None:
                        recorder.warp_activate(cycle, warp, slot)
                    causes[slot_scheduler[slot]] = -1
                    if oplen[warp] == 0:
                        retirable.add(warp)
                    else:
                        ready_masks[slot_scheduler[slot]] |= slot_bit[slot]
                    next_warp_to_activate += 1

        def arrive_at_barrier(warp: int, cycle: int) -> None:
            """Barrier arrival; release the whole CTA when complete.

            Same semantics as the reference: a CTA-mate that already
            retired all its ops counts as arrived.  Whole-CTA activation
            guarantees every unfinished mate is resident, so the wait
            always terminates.  A release leaves every stall cause as it
            was this cycle; the wake-up a cycle later changes them.
            """
            cta = warp // warps_per_cta
            arrived = barrier_arrived.setdefault(cta, set())
            arrived.add(warp)
            blocked_until[warp] = _BLOCKED_ON_BARRIER
            if recorder is not None:
                recorder.barrier_arrive(cycle, warp)
            lo = cta * warps_per_cta
            for mate in range(lo, min(lo + warps_per_cta, num_warps)):
                if pcs[mate] < oplen[mate] and mate not in arrived:
                    return
            release = cycle + 1
            for mate in arrived:
                blocked_until[mate] = release
                if warp_slot[mate] >= 0:
                    heappush(wakeups, (release, mate))
                if recorder is not None:
                    recorder.barrier_release(release, mate)
            arrived.clear()

        next_warp_to_activate = 0
        cycle = 0
        activate_ctas()

        while remaining > 0:
            if cycle > max_cycles:
                raise TimingError(
                    f"SM simulation exceeded {max_cycles} cycles; "
                    "likely a deadlock in the timing model"
                )
            progressed = False

            # 1. Write-backs scheduled for this cycle; each one is the
            # only event that can newly unblock its warp's next op.
            while wheel_cycles and wheel_cycles[0] <= cycle:
                for warp, row in wheel.pop(heappop(wheel_cycles)):
                    dst_bit = row[_DST_BIT]
                    if dst_bit:
                        scoreboards[warp] ^= dst_bit
                    in_flight[warp] -= 1
                    slot = warp_slot[warp]
                    if row[_IS_CTRL] and blocked_until[warp] == _BLOCKED_ON_BRANCH:
                        blocked_until[warp] = cycle
                        if slot >= 0:
                            causes[slot_scheduler[slot]] = -1
                    if recorder is not None:
                        recorder.writeback(
                            cycle, warp, dst_bit.bit_length() - 1 if dst_bit else None
                        )
                    progressed = True
                    if slot >= 0:
                        pc = pcs[warp]
                        if pc >= oplen[warp]:
                            if in_flight[warp] == 0:
                                retirable.add(warp)
                        elif (
                            blocked_until[warp] <= cycle
                            and not scoreboards[warp] & compiled[warp][pc][_HAZARD]
                        ):
                            ready_masks[slot_scheduler[slot]] |= slot_bit[slot]

            # 1b. Barrier wake-ups that have come due.
            while wakeups and wakeups[0][0] <= cycle:
                _, warp = heappop(wakeups)
                slot = warp_slot[warp]
                if slot < 0:
                    continue
                causes[slot_scheduler[slot]] = -1
                pc = pcs[warp]
                if (
                    pc < oplen[warp]
                    and blocked_until[warp] <= cycle
                    and not scoreboards[warp] & compiled[warp][pc][_HAZARD]
                ):
                    ready_masks[slot_scheduler[slot]] |= slot_bit[slot]

            # 2-3. One pass over the collectors in issue order: serve
            # each one's bank reads (one request per bank per cycle,
            # earlier collectors first, the scalar-RF bank serialized
            # exactly as in the reference, §4.1), then dispatch it to a
            # free pipeline port once it is bank-complete.  Dispatch
            # never touches a bank, so this is the reference's
            # collect-all-then-dispatch-all order.
            had_conflict = False
            waiting = 0  # bank-complete collectors no free port took
            if collectors:
                served_banks: set[int] = set()
                kept = []
                for collector in collectors:
                    pending_banks = collector[1]
                    if pending_banks:
                        still_pending = []
                        for bank in pending_banks:
                            if bank not in served_banks:
                                served_banks.add(bank)
                                progressed = True
                            else:
                                still_pending.append(bank)
                                had_conflict = True
                                if bank == SCALAR_RF_BANK:
                                    scalar_conflicts += 1
                        collector[1] = still_pending
                        if still_pending:
                            kept.append(collector)
                            continue
                    row = collector[2]
                    group = row[_PORT]
                    if group_free[group] > cycle:
                        kept.append(collector)
                        waiting += 1
                        continue
                    ports = port_groups[group]
                    port_index = 0
                    while ports[port_index] > cycle:
                        port_index += 1
                    dispatch = row[_DISPATCH]
                    ports[port_index] = cycle + dispatch
                    group_free[group] = min(ports)
                    delta = row[_DELTA]
                    if delta < 0:
                        if row[_IS_SHARED]:
                            latency = access_shared()
                        else:
                            latency = access_global(row[_MEM_SEGMENTS], row[_IS_STORE])
                        delta = dispatch + latency + extra
                    due = cycle + delta
                    bucket = wheel.get(due)
                    if bucket is None:
                        wheel[due] = [(collector[0], row)]
                        heappush(wheel_cycles, due)
                    else:
                        bucket.append((collector[0], row))
                    instructions += 1
                    if not row[_INSERTED]:
                        useful_instructions += 1
                    progressed = True
                collectors = kept
                if had_conflict:
                    bank_conflict_cycles += 1

            # 4. Issue: each scheduler picks at most one ready slot.
            # Collector back-pressure attribution mirrors the
            # reference: a full pool in a cycle whose bank arbitration
            # serialized goes to the bank-conflict bucket.
            full_cause = STALL_BANK_CONFLICT if had_conflict else STALL_COLLECTORS_FULL
            for scheduler_index in range(num_schedulers):
                if len(collectors) >= max_collectors:
                    stall_counts[scheduler_index][full_cause] += 1
                    cycle_causes[scheduler_index] = full_cause
                    continue
                ready = ready_masks[scheduler_index]
                if not ready:
                    cause = causes[scheduler_index]
                    if cause < 0:
                        cause = causes[scheduler_index] = classify_stall(scheduler_index)
                    stall_counts[scheduler_index][cause] += 1
                    cycle_causes[scheduler_index] = cause
                    continue
                if policy_gto:
                    bit = last_bits[scheduler_index]
                    if not ready & bit:
                        bit = ready & -ready
                    last_bits[scheduler_index] = bit
                    position = bit.bit_length() - 1
                else:  # LRR: first ready position at or after the rotation
                    rotation = rr_pos[scheduler_index]
                    later = ready >> rotation
                    if later:
                        position = rotation + (later & -later).bit_length() - 1
                    else:
                        position = (ready & -ready).bit_length() - 1
                    bit = 1 << position
                    rr_pos[scheduler_index] = (
                        position + 1 if position + 1 < partition_sizes[scheduler_index] else 0
                    )
                ready_masks[scheduler_index] = ready ^ bit
                causes[scheduler_index] = -1
                slot = position * num_schedulers + scheduler_index
                warp = slot_warp[slot]
                pc = pcs[warp]
                row = compiled[warp][pc]
                pc += 1
                pcs[warp] = pc
                issued_counts[scheduler_index] += 1
                progressed = True
                if row[_IS_BARRIER]:
                    instructions += 1
                    useful_instructions += 1
                    if recorder is not None:
                        recorder.issue(
                            cycle, warp, scheduler_index, "BAR", "barrier", ()
                        )
                    arrive_at_barrier(warp, cycle)
                    if pc >= oplen[warp] and in_flight[warp] == 0:
                        retirable.add(warp)
                    continue
                dst_bit = row[_DST_BIT]
                if dst_bit:
                    scoreboards[warp] |= dst_bit
                in_flight[warp] += 1
                if row[_IS_CTRL]:
                    blocked_until[warp] = _BLOCKED_ON_BRANCH
                    ready_next = False
                else:
                    ready_next = (
                        pc < oplen[warp]
                        and not scoreboards[warp] & compiled[warp][pc][_HAZARD]
                    )
                collectors.append([warp, row[_SRC_BANKS], row])
                if ready_next:
                    ready_masks[scheduler_index] |= bit
                if recorder is not None:
                    if row[_IS_CTRL]:
                        hint, hint_regs = "branch", ()
                        category = "CTRL"
                    else:
                        category = _PORT_CATEGORY_NAMES[row[_PORT]]
                        if pc >= oplen[warp]:
                            hint, hint_regs = "drain", ()
                        elif not ready_next:
                            blocking = scoreboards[warp] & compiled[warp][pc][_HAZARD]
                            hint = "scoreboard"
                            hint_regs = tuple(
                                register
                                for register in range(blocking.bit_length())
                                if blocking >> register & 1
                            )
                        else:
                            hint, hint_regs = "scheduler", ()
                    recorder.issue(
                        cycle, warp, scheduler_index, category, hint, hint_regs
                    )

            # 5. Retire finished warps; activate pending CTAs whole.
            if retirable:
                batch = list(retirable)
                retirable.clear()
                for warp in batch:
                    slot = warp_slot[warp]
                    warp_slot[warp] = -1
                    slot_warp[slot] = -1
                    compiled[warp] = None
                    heappush(free_slots, slot)
                    scheduler_index = slot_scheduler[slot]
                    causes[scheduler_index] = -1
                    if last_bits[scheduler_index] == slot_bit[slot]:
                        last_bits[scheduler_index] = 0
                    remaining -= 1
                    if recorder is not None:
                        recorder.warp_retire(cycle, warp)
                    progressed = True
                activate_ctas()

            if remaining <= 0:
                cycle += 1
                break

            # 6. Skip ahead over dead cycles — the same jump rule as the
            # reference: the next write-back completion, or the next
            # port release when a bank-complete collector is waiting.
            if progressed:
                cycle += 1
            else:
                next_events = []
                if wheel_cycles:
                    next_events.append(wheel_cycles[0])
                if waiting:
                    busy_ports = [
                        t
                        for t in alu_ports + mem_ports + sfu_ports
                        if t > cycle
                    ]
                    if busy_ports:
                        next_events.append(min(busy_ports))
                if not next_events:
                    raise TimingError(
                        f"timing deadlock: no progress at cycle {cycle} "
                        f"({remaining} warps remaining)"
                    )
                new_cycle = max(cycle + 1, min(next_events))
                # No event fires inside the skipped stretch, so every
                # dead cycle stalls for exactly the reasons this cycle
                # did — replay the recorded per-scheduler attribution.
                skipped = new_cycle - cycle - 1
                if skipped:
                    for scheduler_index in range(num_schedulers):
                        stall_counts[scheduler_index][
                            cycle_causes[scheduler_index]
                        ] += skipped
                cycle = new_cycle

        if recorder is not None:
            recorder.finalize(cycle)
        return TimingResult(
            cycles=cycle,
            instructions=instructions,
            memory_counts=self.memory.counts,
            useful_instructions=useful_instructions,
            issued_per_scheduler=issued_counts,
            scalar_bank_conflicts=scalar_conflicts,
            bank_conflict_cycles=bank_conflict_cycles,
            stalls=StallBreakdown(*(sum(c) for c in zip(*stall_counts))),
            stalls_per_scheduler=[StallBreakdown(*c) for c in stall_counts],
        )
