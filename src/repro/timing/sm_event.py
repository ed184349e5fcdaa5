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
* within a block, warps whose columns other than the coalesced
  segments are equal **share one compiled row list** (a kernel's warps
  mostly run one of a few sequences), so each distinct sequence is
  compiled once; segments stay per warp, in a list indexed by the op's
  pc that lives from activation to retirement;
* **scoreboards** are one int per warp with bit *r* set while register
  *r* is in flight; each compiled row carries a *hazard mask* (its
  destination OR its sources, interned within its compile block so
  equal rows of a block share one int), so an op is scoreboard-ready
  when the two ints do not intersect.  Each warp's *head* mask, its
  next op's, is set at activation and at every issue, so write-backs
  and barrier wake-ups test readiness without touching the rows;
* **ready sets** are one bitmask per scheduler over its partition
  positions (slot *s* is bit ``s // n`` of scheduler ``s % n``): GTO
  tests the last-issued slot's bit, else takes the lowest bit; LRR
  takes the lowest bit at or after the rotation, else the lowest;
* each scheduler's **stall cause** is cached and recomputed only after
  a slot in its partition changed (activation, issue, branch
  write-back, barrier wake-up, retirement) — nothing else can change
  it.  An ALU, MEM or SFU issue that leaves its warp ops to issue
  caches scoreboard instead: the warp stays unblocked, so the scan of
  the partition would stop at it;
* the **collector pool** is split in two: the collectors still reading
  banks, which alone take part in the per-cycle bank arbitration, and
  one issue-ordered list of bank-complete collectors waiting for a
  port (a completion that overtakes an older collector goes in by
  issue sequence).  The list keeps a count per port group and the
  earliest free time of any group with a waiting collector, so the
  dispatch pass runs only once that time has come and stops as soon
  as no group can take another collector.  A dispatch updates its
  group's free time with one compare at most (one or two ports), and
  the earliest time over the three groups inline;
* **write-backs** sit in a timing wheel: one list per completion cycle,
  appended in dispatch order, with a heap of the cycles that have one;
* **counts** that follow from the table are not kept per op: every row
  issues, so the instruction counts are read off the table after the
  run, and a warp issues all its ops from one slot, so its scheduler's
  issue count grows by the warp's length when it retires;
* the loop's helpers (activation, stall classification, barrier
  arrival) live outside :meth:`EventSmSimulator.run` and get the run's
  state bound once, so none of the loop's locals is a closure cell.

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

from bisect import insort
from functools import partial
from heapq import heappop, heappush

import numpy as np

from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.isa.opcodes import OpCategory
from repro.scalar.columns import CATEGORY_TO_CODE, CTRL_CODE, warp_keys
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

# Compiled-op tuple layout (one tuple per row of a distinct warp
# sequence; plain tuples index faster than array or attribute access in
# the hot loop).  A row holds no coalesced segments, so warps that
# differ only in their segments share it.
_DST_BIT = 0  # scoreboard bit of the destination register; 0 for none
_HAZARD = 1  # scoreboard bits of the destination and every source
_SRC_BANKS = 2
_DISPATCH = 3
_PORT = 4
_DELTA = 5  # dispatch + write-back latency + extra latency; -1 for MEM
_IS_CTRL = 6
_IS_BARRIER = 7
_IS_SHARED = 8
_IS_STORE = 9

# Collector-entry layout: [sequence, warp, pending_banks, row, pc], the
# sequence counting issues, so entries compare in issue order.
_SEQUENCE = 0
_WARP = 1
_PENDING = 2
_ROW = 3
_PC = 4

#: Later than any cycle: the free time of a port group nothing waits for.
_NEVER = 1 << 62

#: Fewest table rows one compile block holds (unless the table runs
#: out): activation compiles whole CTAs up to this floor at a time.
_COMPILE_BLOCK_ROWS = 16384

#: Registers per NumPy word while hazard masks are built.
_WORD_BITS = 64


def _ragged_tuples(values, offsets, lo: int, hi: int) -> list[tuple]:
    """Rows ``lo:hi`` of a ragged table as one tuple each (``()`` for
    an empty row, so a sparse table costs a tuple per filled row)."""
    bounds = offsets[lo : hi + 1]
    rows: list[tuple] = [()] * (hi - lo)
    filled = np.flatnonzero(bounds[1:] != bounds[:-1])
    flat = values[bounds[0] : bounds[-1]].tolist()
    starts = (bounds[filled] - bounds[0]).tolist()
    ends = (bounds[filled + 1] - bounds[0]).tolist()
    for row, start, end in zip(filled.tolist(), starts, ends):
        rows[row] = tuple(flat[start:end])
    return rows


def _sequence_keys(table: TimingOpTable, starts: list[int]) -> list[tuple]:
    """One key per warp whose rows are ``starts[i]:starts[i + 1]``.

    Two keys are equal exactly when the warps' columns other than the
    coalesced segments are (:func:`~repro.scalar.columns.warp_keys`
    over every per-row column and the source registers and banks), so
    a block holds one key per distinct sequence.
    """
    return warp_keys(
        (
            table.category_codes,
            table.dst,
            table.dispatch_cycles,
            table.long_latency,
            table.is_store,
            table.is_shared_mem,
            table.is_barrier,
            table.inserted,
        ),
        table.src_offsets,
        (table.src_regs, table.src_banks),
        starts,
    )


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


def _slot_layout(
    max_resident: int, num_schedulers: int
) -> tuple[list[int], list[int], list[range]]:
    """Each slot's scheduler and bit, and each scheduler's slots.

    Slot *s* belongs to scheduler ``s % num_schedulers`` (the static
    parity partition the reference builds via ``partition_warps``) and
    is bit ``s // num_schedulers`` of that scheduler's masks.
    """
    slots = range(max_resident)
    return (
        [slot % num_schedulers for slot in slots],
        [1 << (slot // num_schedulers) for slot in slots],
        [
            partition_slots(index, max_resident, num_schedulers)
            for index in range(num_schedulers)
        ],
    )


def _classify_stall(slot_warp, pcs, oplen, blocked_until, slots, cycle: int) -> int:
    """Attribute one idle scheduler-cycle to its strongest cause.

    Identical semantics (and precedence order) to the reference model's
    classifier: scan the scheduler's ``slots`` and pick the lowest
    STALL_* index present — scoreboard over branch shadow over barrier
    over stream exhaustion.
    """
    cause = STALL_STREAM_EXHAUSTED
    for slot in slots:
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


def _arrive_at_barrier(
    warps_per_cta,
    num_warps,
    barrier_arrived,
    pcs,
    oplen,
    blocked_until,
    warp_slot,
    wakeups,
    recorder,
    warp: int,
    cycle: int,
) -> None:
    """Barrier arrival; release the whole CTA when complete.

    Same semantics as the reference: a CTA-mate that already retired
    all its ops counts as arrived.  Whole-CTA activation guarantees
    every unfinished mate is resident, so the wait always terminates.
    A release leaves every stall cause as it was this cycle; the
    wake-up a cycle later changes them.
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


def _register_numbers(mask: int) -> tuple[int, ...]:
    """The registers whose bits ``mask`` sets, ascending."""
    return tuple(
        register for register in range(mask.bit_length()) if mask >> register & 1
    )


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
        """Pre-resolve table rows ``lo:hi``'s static timing facts,
        segments aside, into flat tuples, straight from the table's
        columns.

        ``interned`` shares equal hazard masks between the calls of one
        compile block, so the block holds one int per distinct mask.
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
                table.is_shared_mem[lo:hi].tolist(),
                table.is_store[lo:hi].tolist(),
            )
        )

    def _compile_block(
        self, starts: list[int]
    ) -> tuple[list[list[tuple]], list[list[tuple]]]:
        """Compiled rows and coalesced segments of the warps whose rows
        are ``starts[i]:starts[i + 1]``, one list each.

        Warps with one :func:`_sequence_keys` key share one row list,
        so each distinct sequence is compiled once (consecutive new
        sequences in one :meth:`_compile_rows` call).  A warp's
        segments are one tuple per row, ``()`` off the memory rows.
        Hazard masks are interned within the block only, so the masks
        live and die with the block's rows.
        """
        interned: dict[int, int] = {}
        keys = _sequence_keys(self.table, starts)
        first_of: dict[tuple, int] = {}
        for index, key in enumerate(keys):
            first_of.setdefault(key, index)
        fresh = list(first_of.values())  # ascending: dicts keep insertion order
        shared: dict[tuple, list[tuple]] = {}
        run_start = 0
        for position, index in enumerate(fresh):
            if position + 1 < len(fresh) and fresh[position + 1] == index + 1:
                continue
            first, end = fresh[run_start], index + 1
            base = starts[first]
            rows = self._compile_rows(base, starts[end], interned)
            for member in range(first, end):
                shared[keys[member]] = rows[
                    starts[member] - base : starts[member + 1] - base
                ]
            run_start = position + 1
        lo = starts[0]
        segments = _ragged_tuples(
            self.table.segments, self.table.seg_offsets, lo, starts[-1]
        )
        return (
            [shared[key] for key in keys],
            [segments[first - lo : end - lo] for first, end in zip(starts, starts[1:])],
        )

    def _activate_ctas(
        self,
        bounds,
        oplen,
        compiled,
        segments,
        free_slots,
        slot_warp,
        warp_slot,
        slot_scheduler,
        slot_bit,
        causes,
        ready_masks,
        heads,
        retirable,
        first: int,
        cycle: int,
    ) -> int:
        """GigaThread-style activation of whole CTAs from warp ``first``
        on, lowest slots first, while one fits; returns the first warp
        left inactive.  The arguments before ``first`` are
        :meth:`run`'s state, bound once per run.

        A CTA not compiled yet is compiled with the CTAs after it,
        until the block holds at least ``_COMPILE_BLOCK_ROWS`` rows or
        none are left.
        """
        num_warps = self.num_warps
        warps_per_cta = self.warps_per_cta
        recorder = self.recorder
        while first < num_warps:
            cta_size = min(warps_per_cta, num_warps - first)
            if cta_size > len(free_slots):
                break
            if compiled[first] is None:
                lo = bounds[first]
                last = first
                while last < num_warps and bounds[last] - lo < _COMPILE_BLOCK_ROWS:
                    last = min(last + warps_per_cta, num_warps)
                compiled[first:last], segments[first:last] = self._compile_block(
                    bounds[first : last + 1]
                )
            for warp in range(first, first + cta_size):
                slot = heappop(free_slots)
                slot_warp[slot] = warp
                warp_slot[warp] = slot
                if recorder is not None:
                    recorder.warp_activate(cycle, warp, slot)
                causes[slot_scheduler[slot]] = -1
                if oplen[warp] == 0:
                    retirable.add(warp)
                else:
                    heads[warp] = compiled[warp][0][_HAZARD]
                    ready_masks[slot_scheduler[slot]] |= slot_bit[slot]
            first += cta_size
        return first

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> TimingResult:
        config = self.config
        num_warps = self.num_warps
        if num_warps == 0:
            return TimingResult(cycles=0, instructions=0, memory_counts=self.memory.counts)

        table = self.table
        oplen = table.warp_lengths.tolist()
        bounds = table.warp_bounds().tolist()
        # A warp's compiled rows (shared with the warps of its block
        # that run the same sequence) and its per-row segments, from
        # just before its CTA activates until it retires (None outside
        # that span).
        compiled: list[list[tuple] | None] = [None] * num_warps
        segments: list[list[tuple] | None] = [None] * num_warps
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
        # Each warp's next op's hazard mask, set at activation and at
        # every issue (stale once the warp has no ops left; every
        # reader checks ``pcs`` first).
        heads = [0] * num_warps
        blocked_until = [0] * num_warps
        in_flight = [0] * num_warps
        remaining = num_warps

        slot_warp = [-1] * max_resident  # slot -> warp (-1 = empty)
        warp_slot = [-1] * num_warps  # warp -> slot (-1 = not resident)
        free_slots = list(range(max_resident))  # min-heap

        slot_scheduler, slot_bit, partitions = _slot_layout(max_resident, num_schedulers)
        ready_masks = [0] * num_schedulers
        partition_sizes = [len(slots) for slots in partitions]
        last_bits = [0] * num_schedulers  # GTO: last-issued slot's bit
        rr_pos = [0] * num_schedulers
        # Cached classify_stall result per scheduler; -1 once a slot of
        # its partition changed.
        causes = [-1] * num_schedulers

        alu_ports = [0] * config.alu_pipelines
        mem_ports = [0] * config.mem_pipelines
        sfu_ports = [0] * config.sfu_pipelines
        port_groups = (alu_ports, mem_ports, sfu_ports)
        group_free = [0] * len(port_groups)  # earliest free port per group
        port_widths = tuple(len(ports) for ports in port_groups)
        # The collector pool, in two issue-ordered lists: ``reading``
        # holds the collectors with bank reads left (only they take
        # part in bank arbitration), ``waiting`` the bank-complete ones
        # no port has taken yet.  For a group with a waiting collector,
        # ``waiting_free`` holds its earliest free port (else _NEVER);
        # ``open_at`` is their minimum, the first cycle one can dispatch.
        reading: list[list] = []
        waiting: list[list] = []
        waiting_count = [0] * len(port_groups)
        waiting_free = [_NEVER] * len(port_groups)
        open_at = _NEVER
        sequence = 0

        # Write-back timing wheel: completion cycle -> [(warp, row)] in
        # dispatch order, plus a min-heap of the cycles present.
        wheel: dict[int, list[tuple[int, tuple]]] = {}
        wheel_cycles: list[int] = []
        wakeups: list[tuple[int, int]] = []  # (cycle, warp) barrier releases
        barrier_arrived: dict[int, set[int]] = {}
        retirable: set[int] = set()

        # Each warp issues all its ops from one slot, so a retiring warp
        # adds its length to its scheduler's count.
        issued_counts = [0] * num_schedulers
        scalar_conflicts = 0
        bank_conflict_cycles = 0
        recorder = self.recorder
        # Per-scheduler stall-cause accumulators (STALL_* indexed);
        # ``cycle_causes`` remembers the current cycle's attribution so
        # skipped-ahead dead cycles replay it — state is frozen across
        # a skip, so every dead cycle stalls for the same reasons.
        stall_counts = [[0] * len(STALL_CAUSES) for _ in range(num_schedulers)]
        cycle_causes = [STALL_STREAM_EXHAUSTED] * num_schedulers

        # The helpers get the run's state bound once, so that none of
        # the loop's locals is a closure cell (a cell costs more to read
        # than a local).
        classify_stall = partial(_classify_stall, slot_warp, pcs, oplen, blocked_until)
        arrive_at_barrier = partial(
            _arrive_at_barrier,
            warps_per_cta,
            num_warps,
            barrier_arrived,
            pcs,
            oplen,
            blocked_until,
            warp_slot,
            wakeups,
            recorder,
        )
        activate_ctas = partial(
            self._activate_ctas,
            bounds,
            oplen,
            compiled,
            segments,
            free_slots,
            slot_warp,
            warp_slot,
            slot_scheduler,
            slot_bit,
            causes,
            ready_masks,
            heads,
            retirable,
        )

        cycle = 0
        next_warp_to_activate = activate_ctas(0, cycle)

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
                        if pcs[warp] >= oplen[warp]:
                            if in_flight[warp] == 0:
                                retirable.add(warp)
                        elif (
                            blocked_until[warp] <= cycle
                            and not scoreboards[warp] & heads[warp]
                        ):
                            ready_masks[slot_scheduler[slot]] |= slot_bit[slot]

            # 1b. Barrier wake-ups that have come due.
            while wakeups and wakeups[0][0] <= cycle:
                _, warp = heappop(wakeups)
                slot = warp_slot[warp]
                if slot < 0:
                    continue
                causes[slot_scheduler[slot]] = -1
                if (
                    pcs[warp] < oplen[warp]
                    and blocked_until[warp] <= cycle
                    and not scoreboards[warp] & heads[warp]
                ):
                    ready_masks[slot_scheduler[slot]] |= slot_bit[slot]

            # 2. Operand collection over the reading collectors in issue
            # order: one request per bank per cycle, earlier collectors
            # first, the scalar-RF bank serialized exactly as in the
            # reference (§4.1).  A bank-complete collector joins the
            # waiting list at its issue sequence: it can overtake an
            # older collector whose banks conflicted.
            had_conflict = False
            if reading:
                served_banks: set[int] = set()
                still_reading = []
                for collector in reading:
                    still_pending = []
                    for bank in collector[_PENDING]:
                        if bank not in served_banks:
                            served_banks.add(bank)
                            progressed = True
                        else:
                            still_pending.append(bank)
                            had_conflict = True
                            if bank == SCALAR_RF_BANK:
                                scalar_conflicts += 1
                    if still_pending:
                        collector[_PENDING] = still_pending
                        still_reading.append(collector)
                        continue
                    if waiting and waiting[-1][_SEQUENCE] > collector[_SEQUENCE]:
                        insort(waiting, collector)
                    else:
                        waiting.append(collector)
                    group = collector[_ROW][_PORT]
                    waiting_count[group] += 1
                    free = waiting_free[group] = group_free[group]
                    if free < open_at:
                        open_at = free
                reading = still_reading
                if had_conflict:
                    bank_conflict_cycles += 1

            # 3. Dispatch waiting collectors to free pipeline ports in
            # issue order, within and across port groups, as the
            # reference does.  Nothing can dispatch before ``open_at``,
            # and the pass ends once no group with a waiting collector
            # has a free port.  A group's collectors before the pass's
            # position were skipped while it was busy, and a group only
            # gets busier within a cycle, so an open group's waiting
            # collectors all lie ahead.
            if open_at <= cycle:
                index = 0
                while True:
                    collector = waiting[index]
                    row = collector[_ROW]
                    group = row[_PORT]
                    if group_free[group] > cycle:
                        index += 1
                        continue
                    del waiting[index]
                    # The group's new free time: the port taken here for
                    # a one-port group, one compare for two ports.
                    ports = port_groups[group]
                    dispatch = row[_DISPATCH]
                    busy = cycle + dispatch
                    width = port_widths[group]
                    if width == 1:
                        ports[0] = free = busy
                    elif width == 2:
                        taken = 0 if ports[0] <= cycle else 1
                        ports[taken] = busy
                        free = ports[1 - taken]
                        if busy < free:
                            free = busy
                    else:
                        port_index = 0
                        while ports[port_index] > cycle:
                            port_index += 1
                        ports[port_index] = busy
                        free = min(ports)
                    group_free[group] = free
                    warp = collector[_WARP]
                    delta = row[_DELTA]
                    if delta < 0:
                        if row[_IS_SHARED]:
                            latency = access_shared()
                        else:
                            latency = access_global(
                                segments[warp][collector[_PC]], row[_IS_STORE]
                            )
                        delta = dispatch + latency + extra
                    due = cycle + delta
                    bucket = wheel.get(due)
                    if bucket is None:
                        wheel[due] = [(warp, row)]
                        heappush(wheel_cycles, due)
                    else:
                        bucket.append((warp, row))
                    count = waiting_count[group] = waiting_count[group] - 1
                    waiting_free[group] = free if count else _NEVER
                    if free > cycle or not count:
                        alu_free, mem_free, sfu_free = waiting_free
                        open_at = alu_free if alu_free < mem_free else mem_free
                        if sfu_free < open_at:
                            open_at = sfu_free
                        if open_at > cycle:
                            break
                progressed = True

            # 4. Issue: each scheduler picks at most one ready slot.
            # Collector back-pressure attribution mirrors the
            # reference: a full pool in a cycle whose bank arbitration
            # serialized goes to the bank-conflict bucket.
            full_cause = STALL_BANK_CONFLICT if had_conflict else STALL_COLLECTORS_FULL
            pool = len(reading) + len(waiting)
            for scheduler_index in range(num_schedulers):
                if pool >= max_collectors:
                    stall_counts[scheduler_index][full_cause] += 1
                    cycle_causes[scheduler_index] = full_cause
                    continue
                ready = ready_masks[scheduler_index]
                if not ready:
                    cause = causes[scheduler_index]
                    if cause < 0:
                        cause = causes[scheduler_index] = classify_stall(
                            partitions[scheduler_index], cycle
                        )
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
                slot = position * num_schedulers + scheduler_index
                warp = slot_warp[slot]
                rows = compiled[warp]
                pc = pcs[warp]
                row = rows[pc]
                pc += 1
                pcs[warp] = pc
                more = pc < oplen[warp]
                if more:
                    head = heads[warp] = rows[pc][_HAZARD]
                progressed = True
                if row[_IS_BARRIER]:
                    causes[scheduler_index] = -1
                    if recorder is not None:
                        recorder.issue(
                            cycle, warp, scheduler_index, "BAR", "barrier", ()
                        )
                    arrive_at_barrier(warp, cycle)
                    if not more and in_flight[warp] == 0:
                        retirable.add(warp)
                    continue
                dst_bit = row[_DST_BIT]
                if dst_bit:
                    scoreboards[warp] |= dst_bit
                in_flight[warp] += 1
                if row[_IS_CTRL]:
                    blocked_until[warp] = _BLOCKED_ON_BRANCH
                    causes[scheduler_index] = -1
                    ready_next = False
                elif more:
                    # The warp stays unblocked with ops left, so a scan
                    # of the partition would stop at it: scoreboard.
                    causes[scheduler_index] = STALL_SCOREBOARD
                    ready_next = not scoreboards[warp] & head
                else:
                    causes[scheduler_index] = -1
                    ready_next = False
                reading.append([sequence, warp, row[_SRC_BANKS], row, pc - 1])
                sequence += 1
                pool += 1
                if ready_next:
                    ready_masks[scheduler_index] |= bit
                if recorder is not None:
                    if row[_IS_CTRL]:
                        hint, hint_regs = "branch", ()
                        category = "CTRL"
                    else:
                        category = _PORT_CATEGORY_NAMES[row[_PORT]]
                        if not more:
                            hint, hint_regs = "drain", ()
                        elif not ready_next:
                            hint = "scoreboard"
                            hint_regs = _register_numbers(scoreboards[warp] & head)
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
                    compiled[warp] = segments[warp] = None
                    heappush(free_slots, slot)
                    scheduler_index = slot_scheduler[slot]
                    issued_counts[scheduler_index] += oplen[warp]
                    causes[scheduler_index] = -1
                    if last_bits[scheduler_index] == slot_bit[slot]:
                        last_bits[scheduler_index] = 0
                    remaining -= 1
                    if recorder is not None:
                        recorder.warp_retire(cycle, warp)
                    progressed = True
                next_warp_to_activate = activate_ctas(next_warp_to_activate, cycle)

            if remaining <= 0:
                cycle += 1
                break

            # 6. Skip ahead over dead cycles — the same jump rule as the
            # reference: the next write-back completion, or the next
            # port release (of any group) when a collector is waiting.
            if progressed:
                cycle += 1
            else:
                next_events = []
                if wheel_cycles:
                    next_events.append(wheel_cycles[0])
                if waiting:
                    release = _NEVER
                    for busy in alu_ports + mem_ports + sfu_ports:
                        if cycle < busy < release:
                            release = busy
                    if release < _NEVER:
                        next_events.append(release)
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
        # Every row has issued: a barrier counts then, any other row at
        # dispatch, and only inserted non-barrier rows do no useful work.
        # They are counted without a table-length temporary, which can
        # raise a large table's peak RSS.
        instructions = table.num_ops
        inserted = np.count_nonzero(table.inserted) - np.count_nonzero(
            table.inserted[table.is_barrier]
        )
        return TimingResult(
            cycles=cycle,
            instructions=instructions,
            memory_counts=self.memory.counts,
            useful_instructions=instructions - int(inserted),
            issued_per_scheduler=issued_counts,
            scalar_bank_conflicts=scalar_conflicts,
            bank_conflict_cycles=bank_conflict_cycles,
            stalls=StallBreakdown(*(sum(c) for c in zip(*stall_counts))),
            stalls_per_scheduler=[StallBreakdown(*c) for c in stall_counts],
        )
