"""Cycle-level model of one streaming multiprocessor: the SM reference.

Models the issue path the paper's mechanisms interact with: two warp
schedulers, a shared pool of operand collectors, 16 register banks with
single-ported arbitration (plus the prior-work single scalar-RF bank,
whose serialization is the §4.1 bottleneck), dual 16-lane ALU pipelines,
one memory pipeline and one 4-lane SFU pipeline with multi-cycle warp
dispatch, a no-bypass scoreboard, and branch-resolution stalls.

The model is trace-driven: each warp executes a fixed list of
:class:`~tests.reference.timing.TimingOp`.  G-Scalar's +3-cycle
pipeline stretch enters through ``extra_latency``.  It rescans every
warp slot, collector and port once per cycle; the event-driven
:class:`~repro.timing.sm_event.EventSmSimulator` must produce a
bit-identical :class:`~repro.timing.sm.TimingResult` over the same ops.

Schedulers: each SM has two (Table 1); warps are statically partitioned
by parity, as in Fermi.  A scheduler picks at most one ready warp per
cycle.  GTO keeps issuing from the warp it last served until that warp
stalls, then falls back to the oldest ready warp — GPGPU-Sim's default
and the configuration the paper evaluates.  GPUs have no operand
bypassing (§5.4): the per-warp :class:`Scoreboard` blocks an op until
every register it reads or writes has left the pipeline.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.isa.opcodes import OpCategory
from repro.timing.memory import MemoryModel
from repro.timing.ops import SCALAR_RF_BANK
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

from tests.reference.timing import TimingOp


class Scoreboard:
    """In-flight destination registers of one warp."""

    def __init__(self) -> None:
        self._pending: set[int] = set()

    def can_issue(self, sources: tuple[int, ...], dst: int | None) -> bool:
        """RAW/WAW/WAR check against in-flight destinations."""
        if dst is not None and dst in self._pending:
            return False
        return not any(register in self._pending for register in sources)

    def blocking_registers(
        self, sources: tuple[int, ...], dst: int | None
    ) -> tuple[int, ...]:
        """The in-flight registers that block this op, sorted.

        Empty exactly when :meth:`can_issue` is True — the flight
        recorder uses this to annotate scoreboard stalls with the
        registers the warp was waiting on.
        """
        blocking = {r for r in sources if r in self._pending}
        if dst is not None and dst in self._pending:
            blocking.add(dst)
        return tuple(sorted(blocking))

    def reserve(self, dst: int | None) -> None:
        """Mark the destination as in flight at issue."""
        if dst is not None:
            self._pending.add(dst)

    def release(self, dst: int | None) -> None:
        """Clear the destination at write-back."""
        if dst is None:
            return
        if dst not in self._pending:
            raise TimingError(f"write-back of r{dst} that was never reserved")
        self._pending.discard(dst)

    @property
    def pending_count(self) -> int:
        return len(self._pending)


class WarpScheduler:
    """One of the SM's schedulers, owning a fixed set of warp slots."""

    def __init__(self, warp_ids: list[int], policy: SchedulerPolicy):
        self.warp_ids = list(warp_ids)
        self.policy = policy
        self._last_issued: int | None = None
        self._rr_position = 0

    def pick(self, ready: set[int]) -> int | None:
        """Choose a warp to issue from among this scheduler's ready warps."""
        candidates = [w for w in self.warp_ids if w in ready]
        if not candidates:
            return None
        if self.policy is SchedulerPolicy.GTO:
            if self._last_issued in ready and self._last_issued in self.warp_ids:
                chosen = self._last_issued
            else:
                chosen = min(candidates)  # oldest = lowest warp id
        elif self.policy is SchedulerPolicy.LRR:
            ordered = self.warp_ids[self._rr_position :] + self.warp_ids[: self._rr_position]
            chosen = next(w for w in ordered if w in ready)
            self._rr_position = (self.warp_ids.index(chosen) + 1) % len(self.warp_ids)
        else:
            raise TimingError(f"unknown scheduler policy {self.policy}")
        self._last_issued = chosen
        return chosen

    def forget(self, slot: int) -> None:
        """Drop greedy preference for a slot whose warp retired.

        ``_last_issued`` names a *slot*, not a warp: when the warp in
        that slot retires and a new warp is activated into it, greedy
        preference must not silently transfer to the unrelated
        newcomer — GTO's greediness is a property of the warp that was
        issuing, and that warp is gone.
        """
        if self._last_issued == slot:
            self._last_issued = None


def partition_warps(
    num_warps: int, num_schedulers: int, policy: SchedulerPolicy
) -> list[WarpScheduler]:
    """Statically partition warps across schedulers by parity."""
    if num_schedulers < 1:
        raise TimingError(f"need >= 1 scheduler, got {num_schedulers}")
    partitions: list[list[int]] = [[] for _ in range(num_schedulers)]
    for warp in range(num_warps):
        partitions[warp % num_schedulers].append(warp)
    return [WarpScheduler(p, policy) for p in partitions]


@dataclass
class _Collector:
    """One operand-collector entry."""

    warp: int
    op: TimingOp
    pending_banks: list[int]


class SmSimulator:
    """Simulate one SM running a fixed set of warps to completion."""

    def __init__(
        self,
        warp_ops: list[list[TimingOp]],
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
        self.warp_ops = warp_ops
        self.config = config
        self.extra_latency = extra_latency
        #: Optional :class:`repro.obs.timeline.FlightRecorder`; ``None``
        #: (the default) keeps the loop hook-free beyond one local
        #: ``is not None`` test per recorded event.
        self.recorder = recorder
        # Without CTA information each warp is its own CTA: barriers
        # become no-ops, matching barrier-free workloads.
        self.warps_per_cta = warps_per_cta or 1
        self.memory = memory or MemoryModel(
            l1_size_bytes=config.l1_cache_bytes,
            l2_share_bytes=max(8 * 1024, config.l2_cache_bytes // config.num_sms),
        )
        self.num_warps = len(warp_ops)
        self.max_resident = min(config.max_warps_per_sm, self.num_warps)
        if self.num_warps and min(self.warps_per_cta, self.num_warps) > self.max_resident:
            # A CTA that cannot fully fit on the SM can never be
            # activated as a unit; without this guard the run would hit
            # the deadlock detector instead of a clear diagnostic.
            raise TimingError(
                f"warps_per_cta={self.warps_per_cta} exceeds the SM's "
                f"{self.max_resident}-warp residency; one CTA can never "
                "be resident at once"
            )

    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> TimingResult:
        config = self.config
        if self.num_warps == 0:
            return TimingResult(cycles=0, instructions=0, memory_counts=self.memory.counts)

        pcs = [0] * self.num_warps
        scoreboards = [Scoreboard() for _ in range(self.num_warps)]
        blocked_until = [0] * self.num_warps
        in_flight = [0] * self.num_warps  # ops issued but not written back
        remaining = self.num_warps
        # CTAs activate as whole units (GigaThread-style): a CTA's warps
        # become resident together, so a barrier can never wait on a
        # CTA-mate that has no slot to run in.  ``free_slots`` is a
        # min-heap so activation always fills the lowest slots first,
        # which for warps_per_cta == 1 reproduces the historical
        # one-warp-per-freed-slot behaviour exactly.
        free_slots = list(range(self.max_resident))
        next_warp_to_activate = 0
        slot_to_warp: dict[int, int | None] = {
            slot: None for slot in range(self.max_resident)
        }
        recorder = self.recorder
        cycle = 0

        def activate_ctas() -> None:
            nonlocal next_warp_to_activate
            while next_warp_to_activate < self.num_warps:
                cta_size = min(
                    self.warps_per_cta, self.num_warps - next_warp_to_activate
                )
                if cta_size > len(free_slots):
                    break
                for _ in range(cta_size):
                    slot = heapq.heappop(free_slots)
                    slot_to_warp[slot] = next_warp_to_activate
                    if recorder is not None:
                        recorder.warp_activate(cycle, next_warp_to_activate, slot)
                    next_warp_to_activate += 1

        activate_ctas()

        schedulers = partition_warps(
            self.max_resident, config.schedulers_per_sm, config.scheduler_policy
        )

        collectors: list[_Collector] = []
        max_collectors = config.operand_collectors_per_sm
        alu_ports = [0] * config.alu_pipelines
        mem_ports = [0] * config.mem_pipelines
        sfu_ports = [0] * config.sfu_pipelines

        writebacks: list[tuple[int, int, int, int | None, bool]] = []
        sequence = itertools.count()
        barrier_arrived: dict[int, set[int]] = {}
        num_schedulers = config.schedulers_per_sm
        issued_counts = [0] * num_schedulers
        scalar_conflicts = 0
        bank_conflict_cycles = 0
        instructions = 0
        useful_instructions = 0
        # Per-scheduler stall-cause accumulators, indexed by the
        # STALL_* constants; ``cycle_causes`` remembers what each
        # scheduler was charged in the current cycle so skipped-ahead
        # dead cycles replay the same attribution.
        stall_counts = [[0] * len(STALL_CAUSES) for _ in range(num_schedulers)]
        cycle_causes = [STALL_STREAM_EXHAUSTED] * num_schedulers

        def classify_stall(scheduler) -> int:
            """Attribute one idle scheduler-cycle to its strongest cause.

            Scans the scheduler's slot partition at the issue point:
            a runnable-but-scoreboard-blocked warp dominates a branch
            shadow dominates a barrier wait dominates an exhausted
            stream (the STALL_* index order).
            """
            cause = STALL_STREAM_EXHAUSTED
            for slot in scheduler.warp_ids:
                warp = slot_to_warp[slot]
                if warp is None or pcs[warp] >= len(self.warp_ops[warp]):
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

        while remaining > 0:
            if cycle > max_cycles:
                raise TimingError(
                    f"SM simulation exceeded {max_cycles} cycles; "
                    "likely a deadlock in the timing model"
                )
            progressed = False

            # 1. Write-backs scheduled for this cycle.
            while writebacks and writebacks[0][0] <= cycle:
                _, _, warp, dst, is_ctrl = heapq.heappop(writebacks)
                scoreboards[warp].release(dst)
                in_flight[warp] -= 1
                if is_ctrl and blocked_until[warp] == _BLOCKED_ON_BRANCH:
                    blocked_until[warp] = cycle
                if recorder is not None:
                    recorder.writeback(cycle, warp, dst)
                progressed = True

            # 2. Operand collection: each bank serves one request/cycle.
            had_conflict = False
            if collectors:
                served_banks: set[int] = set()
                for collector in collectors:
                    still_pending = []
                    for bank in collector.pending_banks:
                        if bank not in served_banks:
                            served_banks.add(bank)
                            progressed = True
                        else:
                            still_pending.append(bank)
                            had_conflict = True
                            if bank == SCALAR_RF_BANK:
                                scalar_conflicts += 1
                    collector.pending_banks = still_pending
                if had_conflict:
                    bank_conflict_cycles += 1

            # 3. Dispatch ready collectors to free pipeline ports.
            for collector in [c for c in collectors if not c.pending_banks]:
                op = collector.op
                if op.category in (OpCategory.ALU, OpCategory.CTRL):
                    ports = alu_ports
                elif op.category is OpCategory.MEM:
                    ports = mem_ports
                else:
                    ports = sfu_ports
                port_index = next(
                    (i for i, busy in enumerate(ports) if busy <= cycle), None
                )
                if port_index is None:
                    continue
                ports[port_index] = cycle + op.dispatch_cycles
                complete = (
                    cycle + op.dispatch_cycles + self._latency_of(op) + self.extra_latency
                )
                heapq.heappush(
                    writebacks,
                    (
                        complete,
                        next(sequence),
                        collector.warp,
                        op.dst,
                        op.category is OpCategory.CTRL,
                    ),
                )
                collectors.remove(collector)
                instructions += 1
                if not op.inserted:
                    useful_instructions += 1
                progressed = True

            # 4. Issue: each scheduler picks at most one ready warp.
            # A full collector pool charges every scheduler to the
            # bank-conflict bucket when this cycle's arbitration had to
            # serialize (the pool drains slower than issue fills it
            # because of the conflicts), else to collectors_full.
            full_cause = STALL_BANK_CONFLICT if had_conflict else STALL_COLLECTORS_FULL
            if len(collectors) >= max_collectors and remaining > 0:
                for scheduler_index in range(num_schedulers):
                    stall_counts[scheduler_index][full_cause] += 1
                    cycle_causes[scheduler_index] = full_cause
            if len(collectors) < max_collectors:
                ready_slots: set[int] = set()
                for slot, warp in slot_to_warp.items():
                    if warp is None or pcs[warp] >= len(self.warp_ops[warp]):
                        continue
                    if blocked_until[warp] > cycle:
                        continue
                    op = self.warp_ops[warp][pcs[warp]]
                    if scoreboards[warp].can_issue(op.src_regs, op.dst):
                        ready_slots.add(slot)
                for scheduler_index, scheduler in enumerate(schedulers):
                    if len(collectors) >= max_collectors:
                        stall_counts[scheduler_index][full_cause] += 1
                        cycle_causes[scheduler_index] = full_cause
                        continue
                    slot = scheduler.pick(ready_slots)
                    if slot is None:
                        cause = classify_stall(scheduler)
                        stall_counts[scheduler_index][cause] += 1
                        cycle_causes[scheduler_index] = cause
                        continue
                    ready_slots.discard(slot)
                    warp = slot_to_warp[slot]
                    assert warp is not None
                    op = self.warp_ops[warp][pcs[warp]]
                    pcs[warp] += 1
                    if op.is_barrier:
                        instructions += 1
                        useful_instructions += 1
                        issued_counts[scheduler_index] += 1
                        progressed = True
                        if recorder is not None:
                            recorder.issue(
                                cycle, warp, scheduler_index, "BAR", "barrier", ()
                            )
                        self._arrive_at_barrier(
                            warp, barrier_arrived, blocked_until, pcs, cycle
                        )
                        continue
                    scoreboards[warp].reserve(op.dst)
                    in_flight[warp] += 1
                    if op.category is OpCategory.CTRL:
                        blocked_until[warp] = _BLOCKED_ON_BRANCH
                    collectors.append(
                        _Collector(warp=warp, op=op, pending_banks=list(op.src_banks))
                    )
                    issued_counts[scheduler_index] += 1
                    progressed = True
                    if recorder is not None:
                        if op.category is OpCategory.CTRL:
                            hint, hint_regs = "branch", ()
                        elif pcs[warp] >= len(self.warp_ops[warp]):
                            hint, hint_regs = "drain", ()
                        else:
                            nxt = self.warp_ops[warp][pcs[warp]]
                            blocking = scoreboards[warp].blocking_registers(
                                nxt.src_regs, nxt.dst
                            )
                            if blocking:
                                hint, hint_regs = "scoreboard", blocking
                            else:
                                hint, hint_regs = "scheduler", ()
                        recorder.issue(
                            cycle, warp, scheduler_index, op.category.name, hint, hint_regs
                        )

            # 5. Retire finished warps; activate pending CTAs whole.
            for slot, warp in list(slot_to_warp.items()):
                if warp is None:
                    continue
                if pcs[warp] >= len(self.warp_ops[warp]) and in_flight[warp] == 0:
                    remaining -= 1
                    slot_to_warp[slot] = None
                    heapq.heappush(free_slots, slot)
                    # The slot's warp is gone: GTO greediness must not
                    # carry over to whatever is activated here next.
                    schedulers[slot % num_schedulers].forget(slot)
                    if recorder is not None:
                        recorder.warp_retire(cycle, warp)
                    progressed = True
            activate_ctas()

            if remaining <= 0:
                cycle += 1
                break

            # 6. Skip ahead over dead cycles.
            if progressed:
                cycle += 1
            else:
                next_events = []
                if writebacks:
                    next_events.append(writebacks[0][0])
                if any(not c.pending_banks for c in collectors):
                    busy_ports = [
                        t for t in alu_ports + mem_ports + sfu_ports if t > cycle
                    ]
                    if busy_ports:
                        next_events.append(min(busy_ports))
                if not next_events:
                    raise TimingError(
                        f"timing deadlock: no progress at cycle {cycle} "
                        f"({remaining} warps remaining)"
                    )
                new_cycle = max(cycle + 1, min(next_events))
                # Machine state is frozen across the skipped stretch,
                # so each dead cycle repeats this cycle's per-scheduler
                # attribution exactly.
                skipped = new_cycle - cycle - 1
                if skipped:
                    for scheduler_index in range(num_schedulers):
                        stall_counts[scheduler_index][
                            cycle_causes[scheduler_index]
                        ] += skipped
                cycle = new_cycle

        if recorder is not None:
            recorder.finalize(cycle)
        per_scheduler = [StallBreakdown(*counts) for counts in stall_counts]
        return TimingResult(
            cycles=cycle,
            instructions=instructions,
            memory_counts=self.memory.counts,
            useful_instructions=useful_instructions,
            issued_per_scheduler=issued_counts,
            scalar_bank_conflicts=scalar_conflicts,
            bank_conflict_cycles=bank_conflict_cycles,
            stalls=StallBreakdown(*(sum(c) for c in zip(*stall_counts))),
            stalls_per_scheduler=per_scheduler,
        )

    # ------------------------------------------------------------------
    def _arrive_at_barrier(
        self,
        warp: int,
        barrier_arrived: dict[int, set[int]],
        blocked_until: list[int],
        pcs: list[int],
        cycle: int,
    ) -> None:
        """Record a barrier arrival; release the CTA when complete.

        A warp that already retired all its ops counts as arrived (it
        can never reach another barrier), matching CUDA's requirement
        that barriers are CTA-uniform.
        """
        recorder = self.recorder
        cta = warp // self.warps_per_cta
        arrived = barrier_arrived.setdefault(cta, set())
        arrived.add(warp)
        blocked_until[warp] = _BLOCKED_ON_BARRIER
        if recorder is not None:
            recorder.barrier_arrive(cycle, warp)
        cta_warps = [
            w
            for w in range(cta * self.warps_per_cta, (cta + 1) * self.warps_per_cta)
            if w < self.num_warps
        ]
        waiting_needed = [
            w for w in cta_warps if pcs[w] < len(self.warp_ops[w]) or w in arrived
        ]
        if all(w in arrived for w in waiting_needed):
            for w in arrived:
                blocked_until[w] = cycle + 1
                if recorder is not None:
                    recorder.barrier_release(cycle + 1, w)
            arrived.clear()

    def _latency_of(self, op: TimingOp) -> int:
        if op.category is OpCategory.MEM:
            if op.is_shared_mem:
                return self.memory.access_shared()
            return self.memory.access_global(op.mem_segments, op.is_store)
        if op.category is OpCategory.SFU:
            return self.config.sfu_latency
        if op.category is OpCategory.CTRL:
            return self.config.ctrl_latency
        if op.long_latency:
            return self.config.long_alu_latency
        return self.config.alu_latency
