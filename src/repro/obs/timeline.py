"""Warp-timeline flight recorder for the SM timing engines.

:class:`FlightRecorder` is the opt-in cycle-level introspection layer
shared by :class:`~repro.timing.sm_event.EventSmSimulator` and the
cycle-level reference ``SmSimulator``: pass one as either engine's
``recorder`` argument and the engine streams per-warp
lifecycle events into a **bounded ring buffer** — warp
activation/retirement, every issue (with category and scheduler),
write-backs, barrier arrivals/releases, and stall spans derived lazily
from the gap between consecutive issues of a warp, labelled with the
cause the engine computed when the gap opened (branch shadow, barrier
wait, scoreboard — including the blocking registers — or
scheduler/collector contention).

The ring is a ``collections.deque(maxlen=capacity)``: recording never
allocates beyond the cap, the oldest events fall off first, and
:attr:`dropped` says how many did.  Two interval-bucketed aggregates
live *outside* the ring (their size is cycles/interval, not events):
issued instructions per interval (an issued-IPC time series) and
integrated warp-residency per interval (an occupancy time series).

Exports, all under the **1 cycle = 1 µs convention** and rendered by
:func:`~repro.obs.chrome_trace.chrome_trace` into one Perfetto file:

* :meth:`FlightRecorder.to_spans` — the ring as
  :class:`~repro.obs.telemetry.SpanEvent` rows: ``pid`` is the SM
  index, ``tid`` the warp id (or a per-scheduler row), so the trace
  shows per-SM/per-scheduler/per-warp timelines;
* :meth:`FlightRecorder.counter_samples` — the interval series as one
  ``timeline`` counter track on the SM's row (series ``issued`` and
  ``occupancy_warp_cycles``), one sample at each interval's first
  cycle;
* :meth:`FlightRecorder.to_telemetry` — the ring-health counters;
* :func:`stalls_to_telemetry` — a :class:`TimingResult`'s per-scheduler
  stall-cause attribution as counters.

Disabled-path discipline: the engines guard every recorder call with a
single local ``is not None`` test, so a ``None`` recorder (the default
everywhere) adds no per-event work — the telemetry-off overhead guard
(``measure`` in ``tests/obs/test_overhead.py``) times exactly this
configuration.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Any

from repro.obs.telemetry import SpanEvent, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.timing.sm import TimingResult

# NOTE: this module must not import repro.timing at module level —
# repro.compression (deep in the timing import chain) imports
# repro.obs.telemetry, so an eager timing import here closes a circular
# import through the obs package init.  The two tiny timing symbols the
# exporters need (scheduler_of_slot, STALL_CAUSES) are imported lazily
# inside the export methods, which never sit on the recording hot path.

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_CYCLES",
    "SCHEDULER_TID_BASE",
    "FlightRecorder",
    "stalls_to_telemetry",
]

#: Default ring capacity: enough for every event of a small-scale run,
#: a bounded window over the tail of a large one.
DEFAULT_CAPACITY = 65_536

#: Default bucket width (cycles) of the issued-IPC and occupancy series.
DEFAULT_INTERVAL_CYCLES = 1024

#: Chrome-trace tid offset for the per-scheduler rows (far above any
#: realistic warp id, so warp rows and scheduler rows never collide).
SCHEDULER_TID_BASE = 1_000_000

# Ring-event kinds (first tuple element).
_ACTIVATE = 0
_ISSUE = 1
_STALL = 2
_WRITEBACK = 3
_BARRIER_ARRIVE = 4
_BARRIER_RELEASE = 5
_RETIRE = 6

EVENT_KIND_NAMES = (
    "activate",
    "issue",
    "stall",
    "writeback",
    "barrier_arrive",
    "barrier_release",
    "retire",
)


class FlightRecorder:
    """Bounded ring buffer of per-warp SM lifecycle events.

    One recorder captures one SM's run.  ``capacity`` bounds the ring,
    ``interval_cycles`` sets the bucket width of the issued-IPC and
    occupancy time series, ``sm`` is the process id stamped on every
    exported span (one Perfetto process group per SM).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
        sm: int = 0,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if interval_cycles < 1:
            raise ValueError(f"interval_cycles must be >= 1, got {interval_cycles}")
        self.capacity = capacity
        self.interval_cycles = interval_cycles
        self.sm = sm
        self.events: deque[tuple] = deque(maxlen=capacity)
        self.recorded = 0  # events ever recorded; dropped = recorded - len(events)
        self.end_cycle = 0
        #: issued instructions per interval bucket.
        self.issued_by_interval: dict[int, int] = {}
        #: integrated warp-cycles of residency per interval bucket.
        self.occupancy_by_interval: dict[int, int] = {}
        self._warp_slots: dict[int, int] = {}
        # warp -> (last issue cycle, stall hint, hint registers); the
        # stall span is materialized when the next issue closes the gap.
        self._open_stalls: dict[int, tuple[int, str, tuple[int, ...]]] = {}
        self._resident = 0
        self._occ_cycle = 0

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (oldest first)."""
        return self.recorded - len(self.events)

    # ------------------------------------------------------------------
    # Engine-facing hooks (hot path when recording is enabled).
    # ------------------------------------------------------------------
    def _append(self, event: tuple) -> None:
        self.events.append(event)
        self.recorded += 1

    def _advance_occupancy(self, cycle: int) -> None:
        """Integrate residency up to ``cycle``, split across buckets."""
        start = self._occ_cycle
        if cycle <= start:
            return
        self._occ_cycle = cycle
        resident = self._resident
        if not resident:
            return
        interval = self.interval_cycles
        occupancy = self.occupancy_by_interval
        while start < cycle:
            bucket = start // interval
            bucket_end = min(cycle, (bucket + 1) * interval)
            occupancy[bucket] = occupancy.get(bucket, 0) + resident * (
                bucket_end - start
            )
            start = bucket_end

    def warp_activate(self, cycle: int, warp: int, slot: int) -> None:
        self._advance_occupancy(cycle)
        self._resident += 1
        self._warp_slots[warp] = slot
        self._append((_ACTIVATE, cycle, warp, slot))

    def issue(
        self,
        cycle: int,
        warp: int,
        scheduler: int,
        category: str,
        hint: str | None,
        hint_regs: tuple[int, ...],
    ) -> None:
        """One instruction issued; closes any open stall gap of the warp.

        ``hint`` is the engine's prediction of why the warp will wait
        *after* this issue (``barrier``, ``branch``, ``scoreboard``,
        ``drain`` or ``scheduler``); if the warp next issues more than
        one cycle later, the gap becomes a stall event with that cause.
        """
        previous = self._open_stalls.pop(warp, None)
        if previous is not None:
            prev_cycle, prev_hint, prev_regs = previous
            gap = cycle - prev_cycle - 1
            if gap > 0:
                self._append((_STALL, prev_cycle + 1, warp, gap, prev_hint, prev_regs))
        if hint is not None:
            self._open_stalls[warp] = (cycle, hint, hint_regs)
        bucket = cycle // self.interval_cycles
        self.issued_by_interval[bucket] = self.issued_by_interval.get(bucket, 0) + 1
        self._append((_ISSUE, cycle, warp, scheduler, category, hint))

    def writeback(self, cycle: int, warp: int, dst: int | None) -> None:
        self._append((_WRITEBACK, cycle, warp, dst))

    def barrier_arrive(self, cycle: int, warp: int) -> None:
        self._append((_BARRIER_ARRIVE, cycle, warp))

    def barrier_release(self, cycle: int, warp: int) -> None:
        self._append((_BARRIER_RELEASE, cycle, warp))

    def warp_retire(self, cycle: int, warp: int) -> None:
        self._advance_occupancy(cycle)
        self._resident -= 1
        previous = self._open_stalls.pop(warp, None)
        if previous is not None:
            prev_cycle, prev_hint, prev_regs = previous
            gap = cycle - prev_cycle - 1
            if gap > 0:
                self._append((_STALL, prev_cycle + 1, warp, gap, prev_hint, prev_regs))
        self._append((_RETIRE, cycle, warp))

    def finalize(self, end_cycle: int) -> None:
        """Close the occupancy integration at the end of the run."""
        self._advance_occupancy(end_cycle)
        self.end_cycle = max(self.end_cycle, end_cycle)

    # ------------------------------------------------------------------
    # Exports.
    # ------------------------------------------------------------------
    def to_spans(self) -> list[SpanEvent]:
        """The surviving ring events as Chrome-traceable spans.

        1 cycle = 1 µs; ``pid`` = SM index; ``tid`` = warp id for the
        per-warp rows, ``SCHEDULER_TID_BASE + s`` for the per-scheduler
        issue rows.  Residency and barrier spans are paired up while
        walking the ring; a pair whose opening event was dropped by the
        ring renders from the earliest surviving cycle.
        """
        pid = self.sm
        spans: list[SpanEvent] = []
        active_since: dict[int, int] = {}
        barrier_since: dict[int, int] = {}
        horizon = self.end_cycle
        for event in self.events:
            kind = event[0]
            cycle = event[1]
            warp = event[2]
            if kind == _ISSUE:
                _, _, _, scheduler, category, hint = event
                args: dict[str, Any] = {"scheduler": scheduler}
                if hint is not None:
                    args["next_wait"] = hint
                spans.append(
                    SpanEvent(
                        name=category,
                        cat="issue",
                        ts_us=cycle,
                        dur_us=1,
                        pid=pid,
                        tid=warp,
                        args=args,
                    )
                )
                spans.append(
                    SpanEvent(
                        name=f"w{warp}:{category}",
                        cat="issue",
                        ts_us=cycle,
                        dur_us=1,
                        pid=pid,
                        tid=SCHEDULER_TID_BASE + scheduler,
                        args={"warp": warp},
                    )
                )
            elif kind == _STALL:
                _, start, _, duration, cause, regs = event
                args = {"cause": cause}
                if regs:
                    args["registers"] = list(regs)
                spans.append(
                    SpanEvent(
                        name=f"stall:{cause}",
                        cat="stall",
                        ts_us=start,
                        dur_us=duration,
                        pid=pid,
                        tid=warp,
                        args=args,
                    )
                )
            elif kind == _WRITEBACK:
                dst = event[3]
                spans.append(
                    SpanEvent(
                        name="writeback",
                        cat="writeback",
                        ts_us=cycle,
                        dur_us=0,
                        pid=pid,
                        tid=warp,
                        args={} if dst is None else {"register": dst},
                    )
                )
            elif kind == _ACTIVATE:
                active_since[warp] = cycle
            elif kind == _RETIRE:
                start = active_since.pop(warp, None)
                first = self.events[0][1] if self.events else 0
                begin = start if start is not None else first
                spans.append(
                    SpanEvent(
                        name=f"warp {warp}",
                        cat="warp",
                        ts_us=begin,
                        dur_us=max(0, cycle - begin),
                        pid=pid,
                        tid=warp,
                        args={"slot": self._warp_slots.get(warp, -1)},
                    )
                )
            elif kind == _BARRIER_ARRIVE:
                barrier_since[warp] = cycle
            elif kind == _BARRIER_RELEASE:
                start = barrier_since.pop(warp, None)
                begin = start if start is not None else cycle
                spans.append(
                    SpanEvent(
                        name="barrier",
                        cat="barrier",
                        ts_us=begin,
                        dur_us=max(0, cycle - begin),
                        pid=pid,
                        tid=warp,
                        args={},
                    )
                )
        # Warps still resident (or parked) when recording stopped.
        for warp, begin in sorted(active_since.items()):
            spans.append(
                SpanEvent(
                    name=f"warp {warp}",
                    cat="warp",
                    ts_us=begin,
                    dur_us=max(0, horizon - begin),
                    pid=pid,
                    tid=warp,
                    args={"slot": self._warp_slots.get(warp, -1), "open": True},
                )
            )
        for warp, begin in sorted(barrier_since.items()):
            spans.append(
                SpanEvent(
                    name="barrier",
                    cat="barrier",
                    ts_us=begin,
                    dur_us=max(0, horizon - begin),
                    pid=pid,
                    tid=warp,
                    args={"open": True},
                )
            )
        return spans

    def chrome_metadata(self, num_schedulers: int) -> dict:
        """Row-naming metadata for :func:`~repro.obs.chrome_trace.chrome_trace`."""
        from repro.timing.scheduler import scheduler_of_slot

        pid = self.sm
        thread_names = {
            (pid, SCHEDULER_TID_BASE + s): f"scheduler {s}"
            for s in range(num_schedulers)
        }
        for warp, slot in sorted(self._warp_slots.items()):
            scheduler = scheduler_of_slot(slot, num_schedulers)
            thread_names[(pid, warp)] = f"warp {warp} (sched {scheduler})"
        return {
            "process_names": {pid: f"SM {pid}"},
            "thread_names": thread_names,
        }

    def counter_samples(self) -> list[tuple[str, int, int, dict[str, int]]]:
        """The interval series as ``samples`` for
        :func:`~repro.obs.chrome_trace.chrome_trace`: one ``timeline``
        sample on the SM's row per interval, at its first cycle, with
        that interval's issued instructions and integrated warp-cycles
        of residency (0 where nothing happened)."""
        interval = self.interval_cycles
        issued = self.issued_by_interval
        occupancy = self.occupancy_by_interval
        last = max(chain(issued, occupancy), default=-1)
        return [
            (
                "timeline",
                self.sm,
                bucket * interval,
                {
                    "issued": issued.get(bucket, 0),
                    "occupancy_warp_cycles": occupancy.get(bucket, 0),
                },
            )
            for bucket in range(last + 1)
        ]

    def to_telemetry(self, telemetry: Telemetry) -> None:
        """Fold the ring health (events recorded and dropped) into a
        registry."""
        sm = str(self.sm)
        telemetry.count("timeline_events_recorded", self.recorded, sm=sm)
        if self.dropped:
            telemetry.count("timeline_events_dropped", self.dropped, sm=sm)


def stalls_to_telemetry(
    telemetry: Telemetry, result: "TimingResult", sm: int = 0
) -> None:
    """Record a timing result's stall attribution as labelled counters.

    One ``sm_stall_scheduler_cycles`` series per (scheduler, cause),
    plus the issued counts — together they tile ``cycles ×
    schedulers``, so the exported metrics obey the same accounting
    invariant the engines are tested for.
    """
    from repro.timing.sm import STALL_CAUSES

    sm_label = str(sm)
    for scheduler, breakdown in enumerate(result.stalls_per_scheduler):
        for cause in STALL_CAUSES:
            value = getattr(breakdown, cause)
            if value:
                telemetry.count(
                    "sm_stall_scheduler_cycles",
                    value,
                    sm=sm_label,
                    scheduler=str(scheduler),
                    cause=cause,
                )
    for scheduler, issued in enumerate(result.issued_per_scheduler):
        if issued:
            telemetry.count(
                "sm_issued_instructions",
                issued,
                sm=sm_label,
                scheduler=str(scheduler),
            )
    telemetry.count("sm_cycles", result.cycles, sm=sm_label)
