"""The streaming memory check (``python -m repro.scalar.bench``)."""

import json

import pytest

from repro.scalar.bench import (
    DEFAULT_STREAMING_BENCHMARKS,
    _probe_main,
    _run_streaming_arm,
    main,
    measure_streaming,
)


class TestStreamingArms:
    def test_streamed_arm_shape(self):
        result = _run_streaming_arm("HS", "tiny", "streamed", 64)
        assert result["events"] > 0
        assert result["replicas"] >= 1
        assert result["peak_rss_bytes"] > 0
        assert result["peak_bytes_in_flight"] > 0

    def test_whole_arm_holds_more_in_flight(self):
        # Chunks far smaller than the trace: the streamed arm's live set
        # (one chunk through every stage) must stay below the whole
        # arm's (full trace + full classified + one processed set).
        streamed = _run_streaming_arm("HS", "tiny", "streamed", 4)
        whole = _run_streaming_arm("HS", "tiny", "whole", 4)
        assert whole["events"] == streamed["events"]
        assert whole["peak_bytes_in_flight"] > streamed["peak_bytes_in_flight"]


class TestProbeEntry:
    def test_probe_prints_one_json_line(self, capsys):
        rc = _probe_main(["HS", "tiny", "streamed", "64", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["completed"] is True
        assert payload["seconds"] > 0
        assert payload["peak_bytes_in_flight"] > 0


class TestMeasureStreaming:
    def test_tiny_scale_end_to_end(self):
        # No ceiling: both subprocess arms complete and the ratio is the
        # honest live-bytes ratio, which must favour streaming.
        result = measure_streaming("HS", "tiny", 4, 0)
        assert result["streamed"]["completed"]
        assert result["whole_trace"]["completed"]
        assert result["events"] == result["streamed"]["events"]
        assert result["events_per_second"] > 0
        assert result["speedup"] > 1.0


class TestCliWiring:
    def test_streaming_defaults(self):
        assert DEFAULT_STREAMING_BENCHMARKS == ("HS",)

    def test_removed_modes_rejected(self):
        # The streaming check is the only mode: the classify and
        # pipeline ratio modes and their flags are gone.
        for flag in ("--streaming", "--pipeline", "--repeats", "--warmup"):
            with pytest.raises(SystemExit):
                main([flag])

    def test_bad_chunk_events_rejected(self):
        with pytest.raises(SystemExit):
            main(["--chunk-events", "0"])
