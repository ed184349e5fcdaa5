"""Exporter tests: Chrome trace, Prometheus text, summary, sinks."""

import io
import json
import os

from repro.obs.chrome_trace import chrome_trace, write_chrome_trace
from repro.obs.prometheus import prometheus_text, write_prometheus
from repro.obs.sinks import JsonlSink
from repro.obs.summary import summary_table
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


class TestPrometheus:
    def test_counter_exposition(self):
        t = Telemetry()
        t.count("scalar_class", 7, **{"class": "alu_scalar"})
        text = prometheus_text(t)
        assert "# TYPE repro_scalar_class_total counter" in text
        assert 'repro_scalar_class_total{class="alu_scalar"} 7' in text

    def test_counter_total_suffix_not_doubled(self):
        t = Telemetry()
        t.count("bytes_total", 3)
        assert "repro_bytes_total 3" in prometheus_text(t)
        assert "total_total" not in prometheus_text(t)

    def test_histogram_cumulative_buckets(self):
        t = Telemetry()
        t.observe("depth", 1, count=2)
        t.observe("depth", 3, count=1)
        text = prometheus_text(t)
        assert 'repro_depth_bucket{le="1"} 2' in text
        assert 'repro_depth_bucket{le="3"} 3' in text
        assert 'repro_depth_bucket{le="+Inf"} 3' in text
        assert "repro_depth_sum 5" in text
        assert "repro_depth_count 3" in text

    def test_label_value_escaping(self):
        t = Telemetry()
        t.count("odd", kernel='quo"te')
        assert 'kernel="quo\\"te"' in prometheus_text(t)

    def test_metric_name_sanitized(self):
        t = Telemetry()
        t.count("weird-name.here")
        assert "repro_weird_name_here_total 1" in prometheus_text(t)

    def test_write_prometheus(self, tmp_path):
        t = Telemetry()
        t.count("hits")
        path = write_prometheus(t, tmp_path / "m.prom")
        assert "repro_hits_total 1" in path.read_text()

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(Telemetry()) == ""


class TestSummary:
    def test_sections_present(self):
        t = _registry_with_spans()
        t.count("scalar_class", 7, **{"class": "alu_scalar"})
        t.observe("depth", 2)
        text = summary_table(t)
        assert "Counters" in text
        assert "Histograms" in text
        assert "Spans" in text
        assert "scalar_class" in text
        assert "class=alu_scalar" in text

    def test_series_overflow_is_rolled_up(self):
        t = Telemetry()
        for bank in range(30):
            t.count("banks", bank + 1, bank=bank)
        text = summary_table(t, max_rows_per_metric=4)
        assert "... 26 more series" in text

    def test_empty_registry(self):
        assert summary_table(Telemetry()) == "telemetry registry is empty"


class TestSinks:
    def test_jsonl_sink_streams_spans(self):
        buffer = io.StringIO()
        t = Telemetry(sink=JsonlSink(buffer))
        with t.span("stage", cat="test"):
            pass
        t.event({"kind": "marker"})
        t.close()
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [line["type"] for line in lines] == ["span", "event"]
        assert lines[0]["name"] == "stage"
        assert lines[1]["kind"] == "marker"

    def test_jsonl_sink_owns_path_handle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit({"n": 1})
        sink.close()
        assert json.loads(path.read_text()) == {"n": 1}
        assert sink.emitted == 1
