"""Event-driven SM timing engine — the fast twin of :mod:`repro.timing.sm`.

:class:`EventSmSimulator` runs a :class:`~repro.timing.ops.TimingOpTable`
(the output of :func:`~repro.timing.ops.build_timing_ops_columns`),
compiling its columns straight into flat per-op rows.  Over the same
ops — ``table.to_ops()`` — the cycle-level
:class:`~repro.timing.sm.SmSimulator` produces a **bit-identical**
:class:`~repro.timing.sm.TimingResult` — cycles,
instruction counts, memory counters, per-scheduler issue counts, bank
conflict counters and per-scheduler stall-cause attributions all match
exactly (the differential suite pins this on all 17 workloads × 5
architectures).  What differs is how time advances:

* the cycle model *rescans* every warp slot, collector and pipeline
  port once per cycle — O(resident warps) of scoreboard checks per
  simulated cycle, which is why it dominated pipeline wall-clock;
* this engine is *event-driven*: warp readiness is updated only when an
  event can change it (a write-back releasing a register, a branch
  resolving, a barrier releasing its CTA, an issue advancing the PC, a
  warp activating), write-back completions and barrier wake-ups live in
  time-ordered heaps, pipeline-port free-times are kept as per-port
  busy-until timestamps, and operand-collector bank conflicts are
  resolved per-epoch over only the collectors that still owe bank
  reads.  Idle stretches are skipped wholesale to the next write-back
  or port-release event, exactly where the reference model skips them.

Per-cycle work is therefore proportional to the events of that cycle
rather than to machine size, which is where the pipeline speedup comes
from.  This engine is the only one the runner uses.  The cycle model is
its differential oracle: tests and ``repro timeline --sm-engine
cycle`` / ``--compare-engines`` reach it
through :func:`create_sm_simulator`.

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
    SmSimulator,
    StallBreakdown,
    TimingResult,
)

#: SM timing engines :func:`create_sm_simulator` builds (``repro
#: timeline --sm-engine``).  ``event`` is this module's event-driven
#: engine, the runner's; ``cycle`` is the per-cycle oracle in
#: :mod:`repro.timing.sm`.
SM_ENGINE_CHOICES = ("event", "cycle")
DEFAULT_SM_ENGINE = "event"

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
_DST = 0
_SRC_REGS = 1
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

#: Table rows compiled per step (bounds the compile's temporary lists).
_COMPILE_BLOCK_ROWS = 16384


def _ragged_tuples(values, offsets, lo: int, hi: int) -> list[tuple]:
    """Rows ``lo:hi`` of a ragged table as one tuple each."""
    bounds = offsets[lo : hi + 1]
    flat = values[bounds[0] : bounds[-1]].tolist()
    bounds = (bounds - bounds[0]).tolist()
    return [tuple(flat[start:end]) for start, end in zip(bounds, bounds[1:])]


def create_sm_simulator(
    engine: str,
    table: TimingOpTable,
    config: GpuConfig,
    extra_latency: int = 0,
    memory: MemoryModel | None = None,
    warps_per_cta: int | None = None,
    recorder=None,
):
    """Instantiate the selected SM timing engine over one op table.

    The cycle model runs ``table.to_ops()``.  ``recorder`` (a
    :class:`repro.obs.timeline.FlightRecorder`) opts the run into
    per-warp lifecycle recording; both engines accept it.
    """
    if engine == "event":
        cls, ops = EventSmSimulator, table
    elif engine == "cycle":
        cls, ops = SmSimulator, table.to_ops()
    else:
        raise TimingError(
            f"unknown SM engine {engine!r}; known: {', '.join(SM_ENGINE_CHOICES)}"
        )
    return cls(
        ops,
        config,
        extra_latency=extra_latency,
        memory=memory,
        warps_per_cta=warps_per_cta,
        recorder=recorder,
    )


class EventSmSimulator:
    """Event-driven simulation of one SM running fixed warps to completion.

    Constructor and run() mirror :class:`~repro.timing.sm.SmSimulator`,
    with a :class:`~repro.timing.ops.TimingOpTable` in place of per-warp
    op lists; see the module docstring for how the two engines relate.
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
    def _compile(self) -> list[list[tuple]]:
        """Pre-resolve every op's static timing facts into flat tuples,
        one list per warp, straight from the table's columns."""
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
        codes = table.category_codes
        port = port_of[codes]
        latency = np.where(
            table.long_latency & (codes == _ALU_CODE),
            config.long_alu_latency,
            latency_of[codes],
        )
        delta = np.where(
            port == _PORT_MEM,
            -1,
            table.dispatch_cycles + latency + self.extra_latency,
        )
        is_ctrl = codes == CTRL_CODE
        rows: list[tuple] = []
        # Block by block, so the per-column Python lists built on the
        # way stay small next to the rows they become.
        for lo in range(0, table.num_ops, _COMPILE_BLOCK_ROWS):
            hi = lo + _COMPILE_BLOCK_ROWS
            rows.extend(
                zip(
                    [None if dst < 0 else dst for dst in table.dst[lo:hi].tolist()],
                    _ragged_tuples(table.src_regs, table.src_offsets, lo, hi),
                    _ragged_tuples(table.src_banks, table.src_offsets, lo, hi),
                    table.dispatch_cycles[lo:hi].tolist(),
                    port[lo:hi].tolist(),
                    delta[lo:hi].tolist(),
                    is_ctrl[lo:hi].tolist(),
                    table.is_barrier[lo:hi].tolist(),
                    table.inserted[lo:hi].tolist(),
                    _ragged_tuples(table.segments, table.seg_offsets, lo, hi),
                    table.is_shared_mem[lo:hi].tolist(),
                    table.is_store[lo:hi].tolist(),
                )
            )
        bounds = table.warp_bounds().tolist()
        return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> TimingResult:
        config = self.config
        num_warps = self.num_warps
        if num_warps == 0:
            return TimingResult(cycles=0, instructions=0, memory_counts=self.memory.counts)

        compiled = self._compile()
        oplen = [len(rows) for rows in compiled]
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
        scoreboards: list[set[int]] = [set() for _ in range(num_warps)]
        blocked_until = [0] * num_warps
        in_flight = [0] * num_warps
        remaining = num_warps

        slot_warp = [-1] * max_resident  # slot -> warp (-1 = empty)
        warp_slot = [-1] * num_warps  # warp -> slot (-1 = not resident)
        free_slots = list(range(max_resident))  # min-heap

        # Per-scheduler incremental ready sets over slots (slot s belongs
        # to scheduler s % num_schedulers, the same static parity
        # partition the reference builds via partition_warps).
        ready_sets: list[set[int]] = [set() for _ in range(num_schedulers)]
        partition_sizes = [
            len(range(i, max_resident, num_schedulers)) for i in range(num_schedulers)
        ]
        last_issued: list[int | None] = [None] * num_schedulers
        rr_pos = [0] * num_schedulers

        # Collector entries are [warp, pending_banks, compiled_row] in
        # issue order; ``draining`` counts entries still owing bank reads.
        collectors: list[list] = []
        draining = 0
        alu_ports = [0] * config.alu_pipelines
        mem_ports = [0] * config.mem_pipelines
        sfu_ports = [0] * config.sfu_pipelines
        port_groups = (alu_ports, mem_ports, sfu_ports)

        writebacks: list[tuple[int, int, int, int | None, bool]] = []
        wakeups: list[tuple[int, int]] = []  # (cycle, warp) barrier releases
        sequence = 0
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

        def sb_ready(warp: int) -> bool:
            """Scoreboard/stream readiness of a warp's next op."""
            pc = pcs[warp]
            if pc >= oplen[warp]:
                return False
            pending = scoreboards[warp]
            if not pending:
                return True
            row = compiled[warp][pc]
            dst = row[_DST]
            if dst is not None and dst in pending:
                return False
            for register in row[_SRC_REGS]:
                if register in pending:
                    return False
            return True

        def activate_ctas() -> None:
            """GigaThread-style activation: whole CTAs, lowest slots first."""
            nonlocal next_warp_to_activate
            while next_warp_to_activate < num_warps:
                cta_size = min(warps_per_cta, num_warps - next_warp_to_activate)
                if cta_size > len(free_slots):
                    break
                for _ in range(cta_size):
                    slot = heappop(free_slots)
                    warp = next_warp_to_activate
                    slot_warp[slot] = warp
                    warp_slot[warp] = slot
                    if recorder is not None:
                        recorder.warp_activate(cycle, warp, slot)
                    if oplen[warp] == 0:
                        retirable.add(warp)
                    else:
                        ready_sets[slot % num_schedulers].add(slot)
                    next_warp_to_activate += 1

        def arrive_at_barrier(warp: int, cycle: int) -> None:
            """Barrier arrival; release the whole CTA when complete.

            Same semantics as the reference: a CTA-mate that already
            retired all its ops counts as arrived.  Whole-CTA activation
            guarantees every unfinished mate is resident, so the wait
            always terminates.
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
            while writebacks and writebacks[0][0] <= cycle:
                _, _, warp, dst, is_ctrl = heappop(writebacks)
                if dst is not None:
                    scoreboards[warp].discard(dst)
                in_flight[warp] -= 1
                if is_ctrl and blocked_until[warp] == _BLOCKED_ON_BRANCH:
                    blocked_until[warp] = cycle
                if recorder is not None:
                    recorder.writeback(cycle, warp, dst)
                progressed = True
                slot = warp_slot[warp]
                if slot >= 0:
                    if pcs[warp] >= oplen[warp]:
                        if in_flight[warp] == 0:
                            retirable.add(warp)
                    elif blocked_until[warp] <= cycle and sb_ready(warp):
                        ready_sets[slot % num_schedulers].add(slot)

            # 1b. Barrier wake-ups that have come due.
            while wakeups and wakeups[0][0] <= cycle:
                _, warp = heappop(wakeups)
                slot = warp_slot[warp]
                if slot >= 0 and blocked_until[warp] <= cycle and sb_ready(warp):
                    ready_sets[slot % num_schedulers].add(slot)

            # 2. Operand collection epoch: one request per bank per
            # cycle, earlier collectors first, the scalar-RF bank
            # serialized exactly as in the reference (§4.1).
            had_conflict = False
            if draining:
                served_banks: set[int] = set()
                still_draining = 0
                for collector in collectors:
                    pending_banks = collector[1]
                    if not pending_banks:
                        continue
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
                        still_draining += 1
                draining = still_draining
                if had_conflict:
                    bank_conflict_cycles += 1

            # 3. Dispatch bank-complete collectors to free pipeline ports.
            if len(collectors) > draining:
                for collector in [c for c in collectors if not c[1]]:
                    row = collector[2]
                    ports = port_groups[row[_PORT]]
                    port_index = -1
                    for index, busy in enumerate(ports):
                        if busy <= cycle:
                            port_index = index
                            break
                    if port_index < 0:
                        continue
                    dispatch = row[_DISPATCH]
                    ports[port_index] = cycle + dispatch
                    delta = row[_DELTA]
                    if delta < 0:
                        if row[_IS_SHARED]:
                            latency = access_shared()
                        else:
                            latency = access_global(row[_MEM_SEGMENTS], row[_IS_STORE])
                        delta = dispatch + latency + extra
                    warp = collector[0]
                    heappush(
                        writebacks,
                        (cycle + delta, sequence, warp, row[_DST], row[_IS_CTRL]),
                    )
                    sequence += 1
                    collectors.remove(collector)
                    instructions += 1
                    if not row[_INSERTED]:
                        useful_instructions += 1
                    progressed = True

            # 4. Issue: each scheduler picks at most one ready slot.
            # Collector back-pressure attribution mirrors the
            # reference: a full pool in a cycle whose bank arbitration
            # serialized goes to the bank-conflict bucket.
            full_cause = STALL_BANK_CONFLICT if had_conflict else STALL_COLLECTORS_FULL
            if len(collectors) >= max_collectors and remaining > 0:
                for scheduler_index in range(num_schedulers):
                    stall_counts[scheduler_index][full_cause] += 1
                    cycle_causes[scheduler_index] = full_cause
            if len(collectors) < max_collectors:
                for scheduler_index in range(num_schedulers):
                    if len(collectors) >= max_collectors:
                        stall_counts[scheduler_index][full_cause] += 1
                        cycle_causes[scheduler_index] = full_cause
                        continue
                    ready = ready_sets[scheduler_index]
                    if not ready:
                        cause = classify_stall(scheduler_index)
                        stall_counts[scheduler_index][cause] += 1
                        cycle_causes[scheduler_index] = cause
                        continue
                    if policy_gto:
                        last = last_issued[scheduler_index]
                        slot = last if last in ready else min(ready)
                        last_issued[scheduler_index] = slot
                    else:  # LRR: first ready slot in rotation order
                        rotation = rr_pos[scheduler_index]
                        size = partition_sizes[scheduler_index]
                        best_rel = size
                        slot = -1
                        for candidate in ready:
                            position = (candidate - scheduler_index) // num_schedulers
                            relative = (position - rotation) % size
                            if relative < best_rel:
                                best_rel = relative
                                slot = candidate
                        rr_pos[scheduler_index] = (
                            (slot - scheduler_index) // num_schedulers + 1
                        ) % size
                    ready.discard(slot)
                    warp = slot_warp[slot]
                    row = compiled[warp][pcs[warp]]
                    pcs[warp] += 1
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
                        if pcs[warp] >= oplen[warp] and in_flight[warp] == 0:
                            retirable.add(warp)
                        continue
                    dst = row[_DST]
                    if dst is not None:
                        scoreboards[warp].add(dst)
                    in_flight[warp] += 1
                    if row[_IS_CTRL]:
                        blocked_until[warp] = _BLOCKED_ON_BRANCH
                        ready_next = False
                    else:
                        ready_next = sb_ready(warp)
                    banks = row[_SRC_BANKS]
                    collectors.append([warp, list(banks), row])
                    if banks:
                        draining += 1
                    if ready_next:
                        ready.add(slot)
                    if recorder is not None:
                        if row[_IS_CTRL]:
                            hint, hint_regs = "branch", ()
                            category = "CTRL"
                        else:
                            category = _PORT_CATEGORY_NAMES[row[_PORT]]
                            if pcs[warp] >= oplen[warp]:
                                hint, hint_regs = "drain", ()
                            elif not ready_next:
                                nxt = compiled[warp][pcs[warp]]
                                pending = scoreboards[warp]
                                blocking = {
                                    r for r in nxt[_SRC_REGS] if r in pending
                                }
                                next_dst = nxt[_DST]
                                if next_dst is not None and next_dst in pending:
                                    blocking.add(next_dst)
                                hint, hint_regs = "scoreboard", tuple(sorted(blocking))
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
                    heappush(free_slots, slot)
                    if policy_gto and last_issued[slot % num_schedulers] == slot:
                        last_issued[slot % num_schedulers] = None
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
                if writebacks:
                    next_events.append(writebacks[0][0])
                if len(collectors) > draining:
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
