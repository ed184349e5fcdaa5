"""Gauges: high-water semantics, memory observables, Chrome trace export.

The export rules shared with counters and histograms are pinned in
``tests/obs/test_exporters.py::TestCounterEvents``.
"""

from repro.obs.chrome_trace import chrome_trace
from repro.obs.memory import (
    peak_rss_bytes,
    record_bytes_in_flight,
    record_peak_rss,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


class TestGaugeSemantics:
    def test_gauge_max_keeps_high_water(self):
        t = Telemetry()
        t.gauge_max("peak", 10)
        t.gauge_max("peak", 4)
        t.gauge_max("peak", 12)
        assert t.gauge_value("peak") == 12

    def test_gauge_labels_are_distinct_series(self):
        t = Telemetry()
        t.gauge_max("peak", 1, stage="classify")
        t.gauge_max("peak", 2, stage="process")
        assert sum(name == "peak" for name, _ in t.gauges) == 2
        assert t.gauge_value("peak", stage="classify") == 1
        assert t.gauge_value("peak", stage="process") == 2

    def test_missing_gauge_is_none(self):
        assert Telemetry().gauge_value("absent") is None

    def test_null_telemetry_ignores_gauges(self):
        NULL_TELEMETRY.gauge_max("x", 2)
        assert NULL_TELEMETRY.gauges == {}


class TestGaugeMerge:
    def test_snapshot_roundtrip(self):
        t = Telemetry()
        t.gauge_max("peak_rss_bytes", 100)
        merged = Telemetry()
        merged.merge(t.snapshot())
        assert merged.gauge_value("peak_rss_bytes") == 100

    def test_merge_folds_by_max(self):
        # One label set folds by max, not sum: the snapshots of tasks
        # one pool worker ran report that process's high-water mark
        # (each worker's peak has its own ``pid`` series).
        parent = Telemetry()
        parent.gauge_max("peak_rss_bytes", 100)
        worker_a = Telemetry()
        worker_a.gauge_max("peak_rss_bytes", 250)
        worker_b = Telemetry()
        worker_b.gauge_max("peak_rss_bytes", 80)
        parent.merge(worker_a)
        parent.merge(worker_b)
        assert parent.gauge_value("peak_rss_bytes") == 250


class TestMemoryObservables:
    def test_peak_rss_is_positive(self):
        assert peak_rss_bytes() > 0

    def test_record_peak_rss_into_registry(self):
        t = Telemetry()
        value = record_peak_rss(t)
        assert value == t.gauge_value("peak_rss_bytes")
        assert value > 0

    def test_record_bytes_in_flight_high_water(self):
        t = Telemetry()
        record_bytes_in_flight(500, t)
        record_bytes_in_flight(200, t)
        assert t.gauge_value("bytes_in_flight") == 500


class TestGaugeCounterEvents:
    @staticmethod
    def counter_series(telemetry):
        trace = chrome_trace(telemetry)
        return {e["name"]: e["args"] for e in trace["traceEvents"] if e["ph"] == "C"}

    def test_gauge_section_rendered(self):
        t = Telemetry()
        t.gauge_max("peak_rss_bytes", 1234)
        t.gauge_max("bytes_in_flight", 42)
        # Gauges keep their registry names: no counter suffix.
        assert self.counter_series(t) == {
            "peak_rss_bytes": {"value": 1234},
            "bytes_in_flight": {"value": 42},
        }

    def test_gauge_labels_rendered(self):
        t = Telemetry()
        t.gauge_max("bytes_in_flight", 7, benchmark="HS")
        t.gauge_max("bytes_in_flight", 3, benchmark="BP")
        assert self.counter_series(t) == {
            "bytes_in_flight": {"benchmark=HS": 7, "benchmark=BP": 3},
        }
