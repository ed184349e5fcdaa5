"""Chrome trace export: spans, metric counter events, counter tracks."""

import json
import os

from repro.obs.chrome_trace import chrome_trace, write_chrome_trace
from repro.obs.telemetry import SpanEvent, Telemetry


def _registry_with_spans():
    t = Telemetry()
    with t.span("outer", cat="stage", tid=1, benchmark="BP"):
        with t.span("inner", cat="warp", tid=2):
            pass
    return t


class TestChromeTrace:
    def test_structure_and_phases(self):
        trace = chrome_trace(_registry_with_spans())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        phases = sorted({event["ph"] for event in trace["traceEvents"]})
        assert phases == ["M", "X"]

    def test_timestamps_rebased_to_zero(self):
        trace = chrome_trace(_registry_with_spans())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(event["ts"] for event in complete) == 0

    def test_span_fields_carried_through(self):
        trace = chrome_trace(_registry_with_spans())
        by_name = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        assert by_name["outer"]["cat"] == "stage"
        assert by_name["outer"]["tid"] == 1
        assert by_name["outer"]["args"] == {"benchmark": "BP"}
        assert by_name["inner"]["cat"] == "warp"

    def test_current_process_labelled_parent(self):
        t = Telemetry()
        # A merged worker span arriving before any parent span must not
        # steal the "parent" label from the exporting process.
        t.spans.append(SpanEvent("w", "stage", 10, 5, pid=99_999_999, tid=1))
        with t.span("p", cat="stage"):
            pass
        trace = chrome_trace(t)
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[99_999_999].startswith("repro worker")
        assert names[os.getpid()].startswith("repro parent")

    def test_written_file_is_valid_json(self, tmp_path):
        path = write_chrome_trace(_registry_with_spans(), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestCounterEvents:
    """Every registry metric leaves the run as a Chrome counter event."""

    @staticmethod
    def counter_events(trace):
        return [e for e in trace["traceEvents"] if e["ph"] == "C"]

    def test_every_metric_value_appears_once(self):
        t = _registry_with_spans()
        t.count("scalar_class", 1, **{"class": "alu_scalar"})
        t.count("scalar_class", 2, **{"class": "vector"})
        t.count("lockstep_steps", 3)
        t.count("regfile_bank_activations", 4, bank=5, op="read")
        t.gauge_max("peak_rss_bytes", 1234)
        t.gauge_max("bytes_in_flight", 42)
        t.gauge_max("bytes_in_flight", 43, benchmark="HS")
        t.observe("warp_instructions", 32, count=6)
        t.observe("warp_instructions", 40, count=7)
        t.observe("reconvergence_stack_depth", 2, count=8, sm=0)
        expected = [1, 2, 3, 4, 1234, 42, 43, 6, 7, 8]
        values = [
            value
            for event in self.counter_events(chrome_trace(t))
            for value in event["args"].values()
        ]
        assert sorted(values) == sorted(expected)

    def test_one_event_per_name_at_the_end_on_the_parent_row(self):
        t = _registry_with_spans()
        t.count("scalar_class", 1, **{"class": "alu_scalar"})
        t.count("scalar_class", 2, **{"class": "vector"})
        t.gauge_max("peak_rss_bytes", 10)
        t.observe("warp_instructions", 32)
        trace = chrome_trace(t)
        counters = self.counter_events(trace)
        names = [event["name"] for event in counters]
        assert sorted(names) == ["peak_rss_bytes", "scalar_class", "warp_instructions"]
        end = max(e["ts"] + e["dur"] for e in trace["traceEvents"] if e["ph"] == "X")
        assert {event["ts"] for event in counters} == {end}
        assert {event["pid"] for event in counters} == {os.getpid()}

    def test_series_per_label_set(self):
        t = Telemetry()
        t.count("scalar_class", 7, **{"class": "alu_scalar"})
        t.count("regfile_bank_activations", 3, op="read", bank=4)
        t.count("lockstep_steps", 99)
        by_name = {e["name"]: e["args"] for e in self.counter_events(chrome_trace(t))}
        assert by_name["scalar_class"] == {"class=alu_scalar": 7}
        assert by_name["regfile_bank_activations"] == {"bank=4,op=read": 3}
        assert by_name["lockstep_steps"] == {"value": 99}

    def test_histogram_series_are_observed_values(self):
        t = Telemetry()
        t.observe("depth", 1, count=2)
        t.observe("depth", 3, count=1)
        t.observe("occupancy", 0.5, count=4, sm=0)
        by_name = {e["name"]: e["args"] for e in self.counter_events(chrome_trace(t))}
        assert by_name["depth"] == {"value=1": 2, "value=3": 1}
        assert by_name["occupancy"] == {"sm=0,value=0.5": 4}

    def test_empty_registry_has_no_counter_events(self):
        assert chrome_trace(Telemetry())["traceEvents"] == []

    def test_samples_share_the_span_origin(self):
        t = Telemetry()
        t.spans.append(SpanEvent("issue", "issue", 10, 1, pid=0, tid=0))
        samples = [("timeline", 0, 0, {"issued": 1}), ("timeline", 0, 8, {"issued": 2})]
        trace = chrome_trace(t, parent_pid=0, samples=samples)
        track = [e for e in self.counter_events(trace) if e["name"] == "timeline"]
        assert [(e["ts"], e["args"]) for e in track] == [
            (0, {"issued": 1}),
            (8, {"issued": 2}),
        ]
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["ts"] == 10
