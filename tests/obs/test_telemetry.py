"""Unit tests for the telemetry registry core."""

import pickle

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    SpanEvent,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)


class TestCounters:
    def test_unlabelled_counter_accumulates(self):
        t = Telemetry()
        t.count("hits")
        t.count("hits", 4)
        assert t.counter_value("hits") == 5

    def test_labels_are_order_insensitive(self):
        t = Telemetry()
        t.count("rf", bank=3, op="read")
        t.count("rf", op="read", bank=3)
        assert t.counter_value("rf", bank=3, op="read") == 2

    def test_label_values_stringified(self):
        t = Telemetry()
        t.count("rf", bank=3)
        assert t.counter_value("rf", bank="3") == 1

    def test_counters_named_returns_all_series(self):
        t = Telemetry()
        t.count("rf", bank=0)
        t.count("rf", bank=1, amount=2)
        t.count("other")
        assert len(t.counters_named("rf")) == 2
        assert list(t.counters_named("other")) == [()]

    def test_counter_names_unique(self):
        t = Telemetry()
        t.count("a", x=1)
        t.count("a", x=2)
        t.count("b")
        assert sorted(t.counter_names()) == ["a", "b"]


class TestHistograms:
    def test_observe_accumulates_counts_per_value(self):
        t = Telemetry()
        t.observe("depth", 1)
        t.observe("depth", 1)
        t.observe("depth", 3, count=5)
        assert t.histogram("depth") == {1: 2, 3: 5}


class TestSpans:
    def test_span_records_interval(self):
        t = Telemetry()
        with t.span("stage", cat="test", tid=7, benchmark="BP"):
            pass
        (span,) = t.spans
        assert span.name == "stage"
        assert span.cat == "test"
        assert span.tid == 7
        assert span.args == {"benchmark": "BP"}
        assert span.dur_us >= 0
        assert span.ts_us > 0

    def test_spans_nest(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_span_event_dict_round_trip(self):
        span = SpanEvent("n", "c", 10, 20, 1, 2, {"k": "v"})
        assert SpanEvent.from_dict(span.to_dict()) == span


class TestMergeAndSnapshot:
    def _populated(self):
        t = Telemetry()
        t.count("hits", 3, kind="a")
        t.observe("depth", 2, count=4)
        with t.span("stage"):
            pass
        return t

    def test_snapshot_is_plain_builtins_and_picklable(self):
        payload = self._populated().snapshot()
        assert pickle.loads(pickle.dumps(payload)) == payload
        assert set(payload) == {"counters", "histograms", "gauges", "spans"}

    def test_merge_snapshot_matches_merge_registry(self):
        via_snapshot = Telemetry()
        via_snapshot.merge(self._populated().snapshot())
        via_registry = Telemetry()
        via_registry.merge(self._populated())
        assert via_snapshot.counters == via_registry.counters
        assert via_snapshot.histograms == via_registry.histograms
        assert len(via_snapshot.spans) == len(via_registry.spans) == 1

    def test_merge_accumulates(self):
        base = self._populated()
        base.merge(self._populated())
        assert base.counter_value("hits", kind="a") == 6
        assert base.histogram("depth") == {2: 8}
        assert len(base.spans) == 2

    def test_merge_none_is_noop(self):
        t = self._populated()
        before = dict(t.counters)
        t.merge(None)
        assert t.counters == before


class TestNullTelemetry:
    def test_disabled_flag(self):
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry().enabled is True

    def test_all_operations_record_nothing(self):
        t = NullTelemetry()
        t.count("hits", 5, kind="a")
        t.observe("depth", 1)
        with t.span("stage"):
            pass
        t.merge(Telemetry())
        assert t.counters == {}
        assert t.histograms == {}
        assert t.spans == []


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_and_reset(self):
        t = Telemetry()
        try:
            assert set_telemetry(t) is t
            assert get_telemetry() is t
        finally:
            set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY

    def test_session_installs_and_restores(self):
        with telemetry_session() as t:
            assert get_telemetry() is t
            assert t.enabled
        assert get_telemetry() is NULL_TELEMETRY

    def test_session_restores_previous_registry(self):
        outer = Telemetry()
        with telemetry_session(outer):
            with telemetry_session() as inner:
                assert get_telemetry() is inner
            assert get_telemetry() is outer
        assert get_telemetry() is NULL_TELEMETRY

    def test_session_restores_on_exception(self):
        try:
            with telemetry_session():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_telemetry() is NULL_TELEMETRY
