"""Tests for the caching experiment runner."""

import json

import pytest

from repro.config import ArchitectureConfig
from repro.experiments.runner import ExperimentRunner, RunnerStats


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


class TestRunner:
    def test_benchmark_names_in_table2_order(self, runner):
        names = runner.benchmark_names()
        assert names[0] == "BT"
        assert names[-1] == "ACF"
        assert len(names) == 17

    def test_run_caches_trace(self, runner):
        first = runner.run("BP")
        second = runner.run("bp")  # case-insensitive
        assert first is second

    def test_processed_cached_per_architecture(self, runner):
        arch = ArchitectureConfig.gscalar()
        first = runner.processed_columns("BP", arch)
        second = runner.processed_columns("BP", arch)
        assert first is second

    def test_columns_cached_per_architecture(self, runner):
        base = runner.processed_columns("BP", ArchitectureConfig.baseline())
        gscalar = runner.processed_columns("BP", ArchitectureConfig.gscalar())
        assert base is not gscalar
        assert runner.processed_columns("BP", ArchitectureConfig.baseline()) is base

    def test_timing_and_power(self, runner):
        arch = ArchitectureConfig.baseline()
        timing = runner.timing("HS", arch)
        power = runner.power("HS", arch)
        assert timing.cycles > 0
        assert power.cycles == timing.cycles
        assert power.ipc_per_watt > 0

    def test_warp64_traces(self, runner):
        trace32 = runner.trace_with_warp_size("HS", 32)
        trace64 = runner.trace_with_warp_size("HS", 64)
        assert trace32.warp_size == 32
        assert trace64.warp_size == 64

    def test_warp64_case_insensitive(self, runner):
        first = runner.trace_with_warp_size("HS", 64)
        second = runner.trace_with_warp_size("hs", 64)
        assert first is second

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="nope")


class TestStaticCompressRunner:
    """The runner feeds the width analysis into the fifth architecture."""

    ARCH = ArchitectureConfig.static_compress()

    def test_widths_cached_per_benchmark(self, runner):
        first = runner.static_widths("BP")
        second = runner.static_widths("BP")
        assert first is second
        assert any(enc > 0 for enc in first)

    def test_static_power_differs_from_baseline(self, runner):
        base = runner.power("BP", ArchitectureConfig.baseline())
        static = runner.power("BP", self.ARCH)
        assert static.breakdown.rf_pj < base.breakdown.rf_pj
        # No runtime detection: the only codec energy is decompression.
        assert static.breakdown.compression_pj > 0


class TestRunnerStats:
    def test_merge_accepts_stats_and_dicts(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 2)
        stats.add_time("classify", 0.5)
        other = RunnerStats()
        other.bump("trace_executions")
        other.bump("trace_cache_hits", 3)
        stats.merge(other)
        stats.merge({"counters": {"trace_executions": 1}, "stage_seconds": {"classify": 0.25}})
        assert stats.trace_executions == 4
        assert stats.counters["trace_cache_hits"] == 3
        assert stats.stage_seconds["classify"] == pytest.approx(0.75)

    def test_to_dict_round_trips_through_merge(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 5)
        rebuilt = RunnerStats()
        rebuilt.merge(stats.to_dict())
        assert rebuilt.trace_executions == 5


class TestTraceCache:
    def test_disk_cache_round_trip(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run_a = first.run("HS")
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert first.stats.trace_executions == 1
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run_b = second.run("HS")
        assert second.stats.trace_executions == 0
        assert second.stats.counters["trace_cache_hits"] == 1
        assert run_a.columnar.num_events == run_b.columnar.num_events
        assert run_a.columnar.masks.tolist() == run_b.columnar.masks.tolist()

    def test_cold_miss_packs_each_trace_once(self, tmp_path, monkeypatch):
        """A cold cached run packs each executed trace exactly once: the
        packed object is both what the cache stores and what the run
        returns."""
        from repro.simt.trace import ColumnarTrace

        packed = []
        original = ColumnarTrace.from_trace.__func__

        def counting(cls, trace):
            packed.append(trace.warp_size)
            return original(cls, trace)

        monkeypatch.setattr(ColumnarTrace, "from_trace", classmethod(counting))
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.run("HS").columnar.warp_size == 32
        assert runner.trace_with_warp_size("HS", 64).warp_size == 64
        assert packed == [32, 64]

    def test_warp64_trace_cached_on_disk(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        trace_a = first.trace_with_warp_size("hs", 64)
        assert (tmp_path / "HS_tiny_w64.v5.json").exists()
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        trace_b = second.trace_with_warp_size("HS", 64)
        assert second.stats.trace_executions == 0
        assert trace_b.warp_size == 64
        assert trace_a.masks.tolist() == trace_b.masks.tolist()

    def test_warp_sizes_do_not_collide_in_cache(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.run("HS")
        runner.trace_with_warp_size("HS", 64)
        assert (tmp_path / "HS_tiny.v5.json").exists()
        assert (tmp_path / "HS_tiny_w64.v5.json").exists()
        fresh = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert fresh.trace_with_warp_size("HS", 64).warp_size == 64
        assert fresh.run("HS").warp_size == 32

    def test_fingerprint_mismatch_triggers_reexecution(self, tmp_path):
        import json

        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        good = seeded.run("HS").columnar
        manifest = tmp_path / "HS_tiny.v5.json"
        # Rewrite the manifest under a wrong fingerprint, simulating a
        # kernel/scale edit since the trace was recorded.  The peek is
        # cheap — staleness is decided before any bank is mapped.
        doc = json.loads(manifest.read_text())
        doc["fingerprint"] = "0" * 16
        manifest.write_text(json.dumps(doc))
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run = runner.run("HS")
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["trace_cache_invalid"] == 1
        # The stale entry was overwritten with a valid one.
        verifier = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        verifier.run("HS")
        assert verifier.stats.trace_executions == 0
        assert run.columnar.num_events == good.num_events

    def test_corrupt_cache_file_recovered(self, tmp_path):
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.run("HS").columnar.num_events
        path = tmp_path / "HS_tiny.v5.json"
        path.write_bytes(b"not a manifest")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        run = runner.run("HS")
        assert run.columnar.num_events == expected
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["trace_cache_invalid"] == 1
        # And the overwrite repaired the cache for the next process.
        repaired = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        repaired.run("HS")
        assert repaired.stats.trace_executions == 0

    def test_corrupt_sidecar_recovered(self, tmp_path):
        """A damaged derived entry — a garbage classified-columns
        manifest, a garbage result object bank — is recomputed."""
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.power("HS", arch).ipc_per_watt
        (tmp_path / "HS_tiny_ccols.v5.json").write_bytes(b"junk")
        (timing_bank,) = tmp_path.glob(f"HS_tiny_results_{arch.name}.*.v5/timing.pkl")
        timing_bank.write_bytes(b"junk")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.power("HS", arch).ipc_per_watt == expected
        assert runner.stats.counters["sidecar_invalid"] >= 2
        assert runner.stats.counters["result_cache_misses"] >= 1

    def test_result_sidecars_replay_timing_and_power(self, tmp_path):
        """Timing and power persist as one v5 ``result`` entry whose
        replay equals the computed objects."""
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        timing = seeded.timing("HS", arch)
        power = seeded.power("HS", arch)
        manifest = tmp_path / f"HS_tiny_results_{arch.name}.v5.json"
        assert json.loads(manifest.read_text())["kind"] == "result"
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.power("HS", arch) == power
        assert warm.timing("HS", arch) == timing
        assert warm.stats.counters["result_cache_hits"] == 1
        assert warm.stats.counters["bytes_deserialized"] > 0
        assert "timing" not in warm.stats.stage_seconds

    def test_cold_pair_probes_its_result_entry_once(self, tmp_path):
        """A cold pair misses its ``result`` entry once, whichever of
        timing and power asks first: both are computed and stored
        together."""
        from repro.experiments.runner import paper_architectures

        arches = paper_architectures()
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in arches:
            cold.power("HS", arch)
            cold.timing("HS", arch)
        counters = cold.stats.counters
        assert counters["result_cache_misses"] == len(arches)
        assert counters.get("result_cache_hits", 0) == 0

    def test_timing_only_run_stores_its_result(self, tmp_path):
        """A run that only asks for timing (``repro stalls``) still
        stores the pair's ``result`` entry, so the next runner replays
        it instead of simulating again."""
        arch = ArchitectureConfig.gscalar()
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        timing = first.timing("HS", arch)
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert second.timing("HS", arch) == timing
        assert second.stats.counters["result_cache_hits"] == 1
        assert "timing" not in second.stats.stage_seconds

    def test_energy_param_change_invalidates_results(self, tmp_path):
        from repro.power.energy import EnergyParams

        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", arch)
        tweaked = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, params=EnergyParams(alu_lane_pj=99.0)
        )
        tweaked.power("HS", arch)
        assert tweaked.stats.counters.get("result_cache_hits", 0) == 0
        assert tweaked.stats.counters["result_cache_misses"] >= 1

    def test_stale_sidecar_skipped_without_unpickling(self, tmp_path):
        """A result entry left by different energy params is rejected
        from its manifest's fingerprint alone: no object bank is
        unpickled to find out."""
        from repro.power.energy import EnergyParams

        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", arch)
        tweaked = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, params=EnergyParams(alu_lane_pj=99.0)
        )
        tweaked.power("HS", arch)
        counters = tweaked.stats.counters
        assert counters["sidecar_invalid"] >= 1
        assert counters["result_cache_misses"] >= 1
        assert counters.get("bytes_deserialized", 0) == 0


def _write_pre_v5_cache(cache_dir):
    """A cache left by an older checkout: an HS ``.npz`` trace archive
    and pickle sidecars under a fingerprint no current input produces."""
    import json
    import pickle

    import numpy as np

    from repro.experiments.runner import matrix_architectures
    from repro.simt.executor import run_kernel
    from repro.workloads.registry import build_workload

    built = build_workload("HS", scale="tiny")
    columnar = run_kernel(built.kernel, built.launch, built.memory).to_columnar()
    header = {"version": 3, "fingerprint": "0" * 16,
              "kernel_name": columnar.kernel_name, "warp_size": columnar.warp_size}
    np.savez_compressed(
        cache_dir / "HS_tiny.npz",
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        warp_ids=columnar.warp_ids,
        values=columnar.values,
    )
    stale = {"fingerprint": "0" * 16, "classified": [], "timing": None, "power": None}
    sidecars = ["HS_tiny_classified.pkl"] + [
        f"HS_tiny_results_{arch.name}.pkl" for arch in matrix_architectures()
    ]
    for name in sidecars:
        (cache_dir / name).write_bytes(pickle.dumps(stale))


class TestTransport:
    def test_pre_v5_entries_are_a_miss(self, tmp_path):
        """Old cache files are never read or migrated: the runner
        executes once, replays none of the old sidecars and writes v5."""
        from repro.experiments.runner import matrix_architectures

        _write_pre_v5_cache(tmp_path)
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            assert cold.power("HS", arch).ipc_per_watt > 0
        assert cold.stats.trace_executions == 1
        assert cold.stats.counters.get("result_cache_hits", 0) == 0
        assert (tmp_path / "HS_tiny.v5.json").exists()

    def test_warm_hit_matches_uncached_runner(self, tmp_path, runner):
        """After the miss, a warm run maps the v5 entry and reports the
        same power as a runner without any cache, on every architecture."""
        from repro.experiments.runner import matrix_architectures

        _write_pre_v5_cache(tmp_path)
        seeder = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            seeder.power("HS", arch)
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            assert warm.power("HS", arch) == runner.power("HS", arch)
        assert warm.stats.trace_executions == 0
        assert warm.stats.counters["bytes_mapped"] > 0
