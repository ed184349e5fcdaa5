"""ExperimentRunner in chunked-streaming mode: equality, cache, wiring.

The runner's ``chunk_events`` mode must produce bit-identical results
to whole-trace mode (cold, from the ``result`` entries, and re-streamed
once those are gone), cache nothing per chunk, keep the synthetic tier
fully streamed (no whole trace ever materialized), and surface the
memory gauges through ``stats.to_dict``.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.experiments import store
from repro.experiments.parallel import MatrixTask, run_matrix
from repro.experiments.runner import ExperimentRunner, matrix_architectures
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
    for path in cache.glob("*_results_*.v5.json"):
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

    def test_streamed_never_materializes(self, synth_scale):
        streamed = ExperimentRunner(scale="synthtest", chunk_events=128)
        whole = ExperimentRunner(scale="synthtest")
        arches = ARCHES[:2]
        for arch in arches:
            assert streamed.power("HS", arch) == whole.power("HS", arch)
        # The streamed runner fed replica chunks straight through — the
        # replicated whole trace was never built.
        run = streamed.run("HS")
        assert "HS" in streamed._seeds
        assert run._columnar is None
        assert streamed.stats.counters.get("synthetic_materializations", 0) == 0
        # The whole-trace arm had to materialize every replica.
        assert whole.stats.counters.get("synthetic_materializations", 0) >= 1

    def test_replica_count_respects_floor(self, synth_scale):
        streamed = ExperimentRunner(scale="synthtest", chunk_events=128)
        streamed.run("HS")
        seed, replicas = streamed._seeds["HS"]
        assert seed.num_events * replicas >= synth_scale.synthetic_events


class TestParallelPassthrough:
    def test_task_fields_default(self):
        task = MatrixTask(
            abbr="HS", scale="tiny", cache_dir="/nonexistent",
            warp_sizes=(32,), arches=ARCHES[:1], config=None, params=None,
        )
        assert task.chunk_events is None

    def test_run_matrix_chunked(self, tmp_path, whole_reference):
        stats = run_matrix(
            BENCHES, "tiny", tmp_path, jobs=1,
            arches=ARCHES, chunk_events=CHUNK,
        )
        assert stats.counters.get("stream_chunks", 0) > 0
        # The warmed cache replays bit-identical in the parent.
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
        runner = ExperimentRunner(scale="tiny")
        runner.power("HS", ARCHES[0])
        payload = runner.stats.to_dict()
        assert payload["gauges"].get("peak_rss_bytes", 0) > 0
        assert "bytes_in_flight" not in payload["gauges"]
