"""ExperimentRunner passes cut into chunks: equality, cache, wiring.

A runner with ``chunk_events`` must produce bit-identical results to
one without, whose passes are one chunk per trace (cold, from the
``result`` entries, and passed again once those are gone), cache
nothing per chunk, keep the synthetic tier streamed one replica at a
time with or without ``chunk_events`` (no whole trace ever
materialized), and surface the memory gauges through
``stats.to_dict``.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.experiments import store
from repro.experiments.parallel import MatrixTask, run_matrix
from repro.experiments.runner import ExperimentRunner, RunnerStats, matrix_architectures
from repro.workloads.registry import SCALES

ARCHES = matrix_architectures()
BENCHES = ("HS", "BT")
CHUNK = 16


@pytest.fixture(scope="module")
def whole_reference():
    runner = ExperimentRunner(scale="tiny")
    return {
        (abbr, arch.name): runner.power(abbr, arch)
        for abbr in BENCHES
        for arch in ARCHES
    }


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory, whole_reference):
    """A cache cold-filled by one chunked runner, plus its results."""
    cache = tmp_path_factory.mktemp("chunked-cache")
    runner = ExperimentRunner(scale="tiny", cache_dir=cache, chunk_events=CHUNK)
    power = {
        (abbr, arch.name): runner.power(abbr, arch)
        for abbr in BENCHES
        for arch in ARCHES
    }
    return cache, runner, power


def _drop_result_sidecars(cache):
    removed = 0
    for path in cache.glob(f"*_results_*{store.ENTRY_SUFFIX}"):
        path.unlink()
        removed += 1
    assert removed > 0
    return removed


class TestValidation:
    def test_zero_chunk_events_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="tiny", chunk_events=0)

    def test_cli_rejects_bad_chunk_events(self):
        with pytest.raises(SystemExit):
            cli_main(["fig1", "--scale", "tiny", "--chunk-events", "0"])


class TestChunkedEqualsWhole:
    def test_cold_streamed_results_bit_identical(self, warm_cache, whole_reference):
        _, runner, power = warm_cache
        for pair, report in whole_reference.items():
            assert power[pair] == report, f"chunked != whole for {pair}"
        counters = runner.stats.counters
        assert counters.get("stream_chunks", 0) > 0
        stages = runner.stats.stage_seconds
        assert "stream" in stages and "timing" in stages

    def test_timing_cached_alongside_power(self, warm_cache):
        _, runner, _ = warm_cache
        # The streamed pass fills both result caches in one walk.
        for abbr in BENCHES:
            for arch in ARCHES:
                assert (abbr, arch.name) in runner._timing
                assert (abbr, arch.name) in runner._power

    def test_result_sidecar_replay(self, warm_cache, whole_reference):
        cache, _, _ = warm_cache
        runner = ExperimentRunner(scale="tiny", cache_dir=cache, chunk_events=CHUNK)
        for pair, report in whole_reference.items():
            assert runner.power(pair[0], ARCHES[[a.name for a in ARCHES].index(pair[1])]) == report
        counters = runner.stats.counters
        assert counters.get("result_cache_hits", 0) > 0
        assert counters.get("stream_chunks", 0) == 0  # nothing streamed

    def test_chunk_bank_replay_without_recompute(self, warm_cache, whole_reference):
        """Chunked runs cache only their ``result`` entries, so there is
        no chunk bank to replay: with the entries dropped, a chunked
        runner streams every pair again and still equals the whole
        reference."""
        cache, _, _ = warm_cache
        _drop_result_sidecars(cache)
        runner = ExperimentRunner(scale="tiny", cache_dir=cache, chunk_events=CHUNK)
        for abbr in BENCHES:
            for arch in ARCHES:
                assert runner.power(abbr, arch) == whole_reference[(abbr, arch.name)]
        counters = runner.stats.counters
        assert counters.get("stream_chunks", 0) > 0
        assert counters.get("result_cache_hits", 0) == 0
        assert counters["result_cache_misses"] == len(BENCHES) * len(ARCHES)

    def test_chunked_cache_holds_no_chunk_entries(self, warm_cache):
        cache, _, _ = warm_cache
        assert list(cache.glob("*_ck*")) == []
        stages = store.scan_cache(cache)["stages"]
        assert "ckidx" not in stages
        assert stages["result"]["entries"] > 0

    def test_different_chunk_size_same_results(self, warm_cache, whole_reference):
        cache, _, _ = warm_cache
        # A different grid size gets its own bank namespace and still
        # reproduces the same outputs.
        runner = ExperimentRunner(scale="tiny", cache_dir=cache, chunk_events=5)
        for arch in ARCHES:
            assert runner.power("HS", arch) == whole_reference[("HS", arch.name)]


class TestSyntheticStreaming:
    @pytest.fixture()
    def synth_scale(self, monkeypatch):
        scale = dataclasses.replace(
            SCALES["tiny"], name="synthtest", synthetic_events=1500
        )
        monkeypatch.setitem(SCALES, "synthtest", scale)
        return scale

    def test_streamed_never_materializes(self, synth_scale, monkeypatch):
        """Both runners feed replica chunks straight through: no
        classification ever sees more than one replica, or more than one
        chunk of 128 events where that is the grid."""
        from repro.experiments import streaming

        classified = []
        classify = streaming.classify_columnar_batch

        def spy(columnar, num_registers):
            classified.append((columnar.num_events, columnar.num_warps))
            return classify(columnar, num_registers)

        monkeypatch.setattr(streaming, "classify_columnar_batch", spy)
        arches = ARCHES[:2]
        streamed = ExperimentRunner(scale="synthtest", chunk_events=128)
        reports = [streamed.power("HS", arch) for arch in arches]
        assert classified
        assert all(events <= 128 or warps == 1 for events, warps in classified)
        classified.clear()
        whole = ExperimentRunner(scale="synthtest")
        assert [whole.power("HS", arch) for arch in arches] == reports
        run = whole.run("HS")
        assert run.replicas > 1
        # One pass per architecture, one chunk per replica.
        assert classified == [
            (run.columnar.num_events, run.columnar.num_warps)
        ] * (len(arches) * run.replicas)

    def test_replica_count_respects_floor(self, synth_scale):
        streamed = ExperimentRunner(scale="synthtest", chunk_events=128)
        run = streamed.run("HS")
        assert run.columnar.num_events * run.replicas >= synth_scale.synthetic_events


class TestParallelPassthrough:
    def test_task_fields_default(self):
        task = MatrixTask(
            abbr="HS", scale="tiny", cache_dir="/nonexistent",
            experiments=(), arches=ARCHES[:1], config=None, params=None,
        )
        assert task.chunk_events is None

    def test_run_matrix_chunked(self, tmp_path, whole_reference):
        payloads = run_matrix(
            BENCHES, "tiny", tmp_path, jobs=2,
            arches=ARCHES, chunk_events=CHUNK,
        )
        stats = RunnerStats()
        for payload in payloads:
            stats.merge(payload)
        assert stats.counters.get("stream_chunks", 0) > 0
        # The returned reports and the warmed cache are both
        # bit-identical to the whole-trace run.
        returned = {}
        for payload in payloads:
            returned.update(payload["power"])
        assert returned == whole_reference
        replay = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, chunk_events=CHUNK
        )
        for abbr in BENCHES:
            for arch in ARCHES:
                assert replay.power(abbr, arch) == whole_reference[(abbr, arch.name)]
        assert replay.stats.counters.get("result_cache_hits", 0) > 0


class TestStatsGauges:
    def test_streamed_stats_report_memory_gauges(self, warm_cache):
        _, runner, _ = warm_cache
        payload = runner.stats.to_dict()
        assert "gauges" in payload
        assert payload["gauges"].get("peak_rss_bytes", 0) > 0
        assert payload["gauges"].get("bytes_in_flight", 0) > 0

    def test_whole_trace_stats_still_stamp_peak_rss(self):
        """An unchunked runner's pass is one chunk: the whole trace is
        in flight."""
        from repro.experiments.streaming import _array_bytes

        runner = ExperimentRunner(scale="tiny")
        runner.power("HS", ARCHES[0])
        payload = runner.stats.to_dict()
        assert payload["gauges"].get("peak_rss_bytes", 0) > 0
        assert payload["gauges"]["bytes_in_flight"] > _array_bytes(
            runner.run("HS").columnar
        )
