"""Tests for the warp-timeline flight recorder and its exporters."""

import json

import pytest

from repro.config import GpuConfig
from repro.isa.opcodes import OpCategory
from repro.obs.chrome_trace import chrome_trace
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import (
    DEFAULT_CAPACITY,
    EVENT_KIND_NAMES,
    SCHEDULER_TID_BASE,
    FlightRecorder,
    stalls_to_telemetry,
)
from repro.timing.sm_event import EventSmSimulator

from tests.reference.sm import SmSimulator
from tests.reference.timing import TimingOp, from_ops
from tests.timing.test_sm_event import SATURATED_CONFIGS, saturated_warps

_STALL_KIND = EVENT_KIND_NAMES.index("stall")

CONFIG = GpuConfig()


def alu_op(dst=None, srcs=()):
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=tuple(r % 16 for r in srcs),
        dispatch_cycles=2,
        long_latency=False,
        is_store=False,
    )


def barrier_op():
    return TimingOp(
        category=OpCategory.CTRL,
        dst=None,
        src_regs=(),
        src_banks=(),
        dispatch_cycles=1,
        long_latency=False,
        is_store=False,
        is_barrier=True,
    )


def chain(length):
    return [alu_op(dst=0)] + [alu_op(dst=0, srcs=(0,)) for _ in range(length)]


class TestRecorderRing:
    def test_defaults_and_validation(self):
        recorder = FlightRecorder()
        assert recorder.capacity == DEFAULT_CAPACITY
        assert recorder.dropped == 0
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(interval_cycles=0)

    def test_wraparound_drops_oldest_and_keeps_order(self):
        recorder = FlightRecorder(capacity=8)
        SmSimulator([chain(6), chain(6)], CONFIG, recorder=recorder).run()
        assert recorder.recorded > 8
        assert recorder.dropped == recorder.recorded - 8
        assert len(recorder.events) == 8
        # The surviving window is the newest events; the directly
        # recorded kinds stay in chronological order (stall events are
        # exempt — they are retro-dated to when the gap opened and only
        # materialize at the issue that closes it).
        cycles = [
            event[1] for event in recorder.events if event[0] != _STALL_KIND
        ]
        assert cycles == sorted(cycles)

    def test_stall_span_carries_cause_and_registers(self):
        recorder = FlightRecorder()
        recorder.warp_activate(0, warp=0, slot=0)
        recorder.issue(5, warp=0, scheduler=0, category="ALU",
                       hint="scoreboard", hint_regs=(3, 7))
        recorder.issue(10, warp=0, scheduler=0, category="ALU",
                       hint=None, hint_regs=())
        stalls = [s for s in recorder.to_spans() if s.cat == "stall"]
        assert len(stalls) == 1
        span = stalls[0]
        assert span.name == "stall:scoreboard"
        assert span.ts_us == 6 and span.dur_us == 4
        assert span.args == {"cause": "scoreboard", "registers": [3, 7]}

    def test_back_to_back_issues_produce_no_stall(self):
        recorder = FlightRecorder()
        recorder.issue(5, warp=0, scheduler=0, category="ALU",
                       hint="scheduler", hint_regs=())
        recorder.issue(6, warp=0, scheduler=0, category="ALU",
                       hint=None, hint_regs=())
        assert [s for s in recorder.to_spans() if s.cat == "stall"] == []

    def test_retire_closes_open_stall(self):
        recorder = FlightRecorder()
        recorder.warp_activate(0, warp=0, slot=0)
        recorder.issue(2, warp=0, scheduler=0, category="ALU",
                       hint="drain", hint_regs=())
        recorder.warp_retire(9, warp=0)
        stalls = [s for s in recorder.to_spans() if s.cat == "stall"]
        assert len(stalls) == 1
        assert stalls[0].ts_us == 3 and stalls[0].dur_us == 6

    def test_occupancy_integrates_across_buckets(self):
        recorder = FlightRecorder(interval_cycles=10)
        recorder.warp_activate(0, warp=0, slot=0)
        recorder.warp_activate(0, warp=1, slot=1)
        recorder.warp_retire(25, warp=0)
        recorder.finalize(30)
        assert recorder.occupancy_by_interval == {0: 20, 1: 20, 2: 15}

    def test_issued_interval_series(self):
        recorder = FlightRecorder(interval_cycles=4)
        for cycle in (0, 1, 5, 6, 7):
            recorder.issue(cycle, warp=0, scheduler=0, category="ALU",
                           hint=None, hint_regs=())
        assert recorder.issued_by_interval == {0: 2, 1: 3}


class TestEngineIdenticalStreams:
    @staticmethod
    def assert_identical_spans(warps, config, **kwargs):
        streams = []
        for engine, ops in (
            (SmSimulator, warps),
            (EventSmSimulator, from_ops(warps)),
        ):
            recorder = FlightRecorder()
            engine(ops, config, recorder=recorder, **kwargs).run()
            streams.append(
                sorted(
                    (s.name, s.cat, s.ts_us, s.dur_us, s.pid, s.tid,
                     tuple(sorted(s.args.items(), key=repr)))
                    for s in recorder.to_spans()
                )
            )
        assert streams[0] == streams[1]

    def test_both_engines_record_identical_spans(self):
        warps = [
            chain(4) + [barrier_op(), alu_op(dst=2)],
            [barrier_op(), alu_op(dst=3, srcs=(3,))],
            chain(2),
            [],
        ]
        self.assert_identical_spans(warps, CONFIG, warps_per_cta=2)

    def test_saturated_pool_records_identical_spans(self):
        """48 resident warps that keep the collector pool full, their
        ALU, SFU and memory ops sharing write-back buckets."""
        self.assert_identical_spans(
            saturated_warps("deltas", seed=1),
            GpuConfig(**SATURATED_CONFIGS["deltas"]),
            extra_latency=3,
        )


class TestChromeTraceEdgeCases:
    def _recorded(self, capacity=DEFAULT_CAPACITY):
        recorder = FlightRecorder(capacity=capacity)
        warps = [chain(4), chain(4)]
        SmSimulator(warps, CONFIG, recorder=recorder).run()
        return recorder

    def _trace(self, recorder):
        registry = Telemetry()
        registry.spans.extend(recorder.to_spans())
        metadata = recorder.chrome_metadata(CONFIG.schedulers_per_sm)
        return chrome_trace(
            registry,
            process_names=metadata["process_names"],
            thread_names=metadata["thread_names"],
        )

    def test_zero_duration_writebacks_survive_export(self):
        trace = self._trace(self._recorded())
        writebacks = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "writeback"
        ]
        assert writebacks
        assert all(e["dur"] == 0 for e in writebacks)
        json.dumps(trace)  # round-trips

    def test_interleaved_same_name_spans_keep_distinct_rows(self):
        # Both warps stall on the scoreboard with overlapping windows;
        # the exporter must keep one span per warp row, not merge them.
        trace = self._trace(self._recorded())
        stalls = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "stall:scoreboard"
        ]
        assert len({e["tid"] for e in stalls}) == 2
        overlapping = [
            (a, b)
            for a in stalls
            for b in stalls
            if a["tid"] < b["tid"]
            and a["ts"] < b["ts"] + b["dur"]
            and b["ts"] < a["ts"] + a["dur"]
        ]
        assert overlapping  # genuinely interleaved in time

    def test_wraparound_window_exports_in_order(self):
        recorder = self._recorded(capacity=16)
        assert recorder.dropped > 0
        trace = self._trace(recorder)
        issues = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "issue"
        ]
        timestamps = [e["ts"] for e in issues]
        # Ring order is chronological even after eviction, and the
        # rebased origin keeps the earliest surviving event at t >= 0.
        assert timestamps == sorted(timestamps)
        assert all(ts >= 0 for ts in timestamps)

    def test_metadata_names_warps_and_schedulers(self):
        trace = self._trace(self._recorded())
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert names[(0, 0)] == "warp 0 (sched 0)"
        assert names[(0, 1)] == "warp 1 (sched 1)"
        assert names[(0, SCHEDULER_TID_BASE)] == "scheduler 0"
        process = [
            e for e in trace["traceEvents"] if e["name"] == "process_name"
        ]
        assert process[0]["args"]["name"] == "SM 0"


class TestTelemetryExport:
    def test_counter_samples_one_per_interval(self):
        recorder = FlightRecorder(interval_cycles=4)
        recorder.warp_activate(0, warp=0, slot=0)
        for cycle in (0, 5, 41):
            recorder.issue(cycle, warp=0, scheduler=0, category="ALU",
                           hint=None, hint_regs=())
        recorder.warp_retire(42, warp=0)
        recorder.finalize(44)
        samples = recorder.counter_samples()
        assert [(name, pid, ts) for name, pid, ts, _ in samples] == [
            ("timeline", 0, 4 * bucket) for bucket in range(11)
        ]
        assert [values["issued"] for *_, values in samples] == (
            [1, 1] + [0] * 8 + [1]
        )
        assert [values["occupancy_warp_cycles"] for *_, values in samples] == (
            [4] * 10 + [2]
        )

    def test_to_telemetry_records_only_ring_health(self):
        recorder = FlightRecorder(interval_cycles=4)
        recorder.warp_activate(0, warp=0, slot=0)
        recorder.issue(1, warp=0, scheduler=0, category="ALU",
                       hint=None, hint_regs=())
        recorder.finalize(9)
        registry = Telemetry()
        recorder.to_telemetry(registry)
        assert set(name for name, _ in registry.counters) == {
            "timeline_events_recorded"
        }
        assert registry.histograms == {}

    def test_ring_health_counters(self):
        recorder = FlightRecorder(capacity=2)
        for cycle in range(5):
            recorder.issue(cycle, warp=0, scheduler=0, category="ALU",
                           hint=None, hint_regs=())
        registry = Telemetry()
        recorder.to_telemetry(registry)
        assert registry.counter_value("timeline_events_recorded", sm="0") == 5
        assert registry.counter_value("timeline_events_dropped", sm="0") == 3

    def test_stalls_to_telemetry_tiles_cycles(self):
        result = SmSimulator([chain(5), chain(3)], CONFIG).run()
        registry = Telemetry()
        stalls_to_telemetry(registry, result)
        stall_total = sum(
            value
            for value in registry.counters_named(
                "sm_stall_scheduler_cycles"
            ).values()
        )
        issued_total = sum(
            value
            for value in registry.counters_named("sm_issued_instructions").values()
        )
        cycles = registry.counter_value("sm_cycles", sm="0")
        assert stall_total + issued_total == cycles * CONFIG.schedulers_per_sm
