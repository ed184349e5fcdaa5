"""Tests for the caching experiment runner."""

import dataclasses
import gc
import pickle
import sys

import pytest

from repro.config import ArchitectureConfig
from repro.experiments import store
from repro.experiments.runner import (
    ExperimentRunner,
    RunnerStats,
    paper_architectures,
)
from repro.experiments.sensitivity import sweep_latency_parameter
from repro.experiments.summary import BUILDERS
from repro.obs.timeline import FlightRecorder
from repro.scalar.columns import ClassifiedColumns, ProcessedColumns
from repro.simt import MemoryImage
from repro.simt.trace import ColumnarTrace
from repro.timing.gpu import simulate_architecture_columns
from repro.timing.ops import TimingOpTable, lowering_key
from repro.timing.sm_event import EventSmSimulator

from tests.oracles import (
    classified_columns,
    processed_columns,
    sweep_latency_parameter_events,
)


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

    def test_op_table_memo_per_architecture(self):
        """One op-table entry and one aggregate set per pair: asking
        again builds nothing, another architecture builds its own."""
        runner = ExperimentRunner(scale="tiny")
        base = runner.power_aggregates("BP", ArchitectureConfig.baseline())
        gscalar = runner.power_aggregates("BP", ArchitectureConfig.gscalar())
        assert base is not gscalar
        assert runner.power_aggregates("bp", ArchitectureConfig.baseline()) is base
        runner.timing("BP", ArchitectureConfig.baseline())
        assert runner.stats.counters["op_tables"] == 2

    def test_processed_columns_are_not_kept(self):
        """Classified and processed columns are temporaries of a pass:
        no memo of the runner holds one."""
        runner = ExperimentRunner(scale="tiny")
        runner.timing("BP", ArchitectureConfig.gscalar())
        runner.summary("BP", "counts")
        held = [
            item
            for memo in vars(runner).values()
            if isinstance(memo, dict)
            for value in memo.values()
            for item in (value if isinstance(value, tuple) else (value,))
        ]
        assert held
        assert not [
            item
            for item in held
            if isinstance(item, (ClassifiedColumns, ProcessedColumns))
        ]

    def test_timing_and_power(self, runner):
        arch = ArchitectureConfig.baseline()
        timing = runner.timing("HS", arch)
        power = runner.power("HS", arch)
        assert timing.cycles > 0
        assert power.cycles == timing.cycles
        assert power.ipc_per_watt > 0

    def test_warp64_traces(self, runner):
        assert runner.run("HS").columnar.warp_size == 32
        executions = runner.stats.trace_executions
        trace64 = runner.execute("hs", 64)
        assert trace64.warp_size == 64
        assert runner.stats.trace_executions == executions + 1
        # Nothing is kept: the next call executes again.
        assert runner.execute("HS", 64) is not trace64

    def test_warp64_case_insensitive(self, runner):
        first = runner.summary("HS", "fig10")
        second = runner.summary("hs", "fig10")
        assert first is second
        assert [stats.warp_size for stats in first] == [32, 64]

    def test_unknown_summary_rejected(self, runner):
        with pytest.raises(KeyError):
            runner.summary("HS", "fig11")

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


class TestSmMemo:
    """The runner simulates each distinct SM input once."""

    BASELINE = ArchitectureConfig.baseline()
    GSCALAR = ArchitectureConfig.gscalar()

    @staticmethod
    def _engine_runs(monkeypatch) -> list:
        runs = []
        original = EventSmSimulator.run

        def counting(self, *args, **kwargs):
            runs.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EventSmSimulator, "run", counting)
        return runs

    def test_equal_tables_share_one_simulation(self, monkeypatch):
        runner = ExperimentRunner(scale="tiny")
        arches = (self.GSCALAR, ArchitectureConfig.gscalar_no_divergent())
        runs = self._engine_runs(monkeypatch)
        results = [runner.timing("BP", arch) for arch in arches]
        assert len(runs) == 1
        assert runner.stats.counters["sm_runs"] == 1
        assert runner.stats.counters["sm_reuses"] == 1
        for arch, timing in zip(arches, results):
            assert timing == simulate_architecture_columns(
                classified_columns(runner, "BP"),
                processed_columns(runner, "BP", arch),
                arch,
                runner.config,
                warps_per_cta=runner.warps_per_cta("BP"),
            )

    @pytest.mark.parametrize("chunk_events", [None, 64])
    def test_a_twin_table_is_joined_and_hashed_once(self, monkeypatch, chunk_events):
        # gscalar lowers every chunk to gscalar_no_divergent's tables,
        # so a pass over the four paper architectures joins and hashes
        # three tables, and gscalar's memo entry keeps its twin's.
        joins, digests = [], []
        concat, digest = TimingOpTable.concat.__func__, TimingOpTable.digest
        monkeypatch.setattr(
            TimingOpTable,
            "concat",
            classmethod(lambda cls, parts: joins.append(parts) or concat(cls, parts)),
        )
        monkeypatch.setattr(
            TimingOpTable, "digest", lambda self: digests.append(self) or digest(self)
        )
        runner = ExperimentRunner(scale="tiny", chunk_events=chunk_events)
        runner.prefetch(names=["BP"])
        counters = runner.stats.counters
        assert (counters["op_tables"], len(joins), len(digests)) == (4, 3, 3)
        assert counters["stream_chunks"] > (1 if chunk_events else 0)
        assert (counters["sm_runs"], counters["sm_reuses"]) == (3, 1)
        lkey = lowering_key(runner.config)
        gscalar, twin = (
            runner._op_tables[("BP", name, lkey)]
            for name in ("gscalar", "gscalar_no_divergent")
        )
        assert gscalar.digest == twin.digest

    def test_a_changed_latency_simulates_again(self, monkeypatch):
        runner = ExperimentRunner(scale="tiny")
        runner.simulate_sm("BP", self.BASELINE)
        runs = self._engine_runs(monkeypatch)
        config = runner.config
        runner.simulate_sm("BP", self.BASELINE, dataclasses.replace(config))
        assert runs == []
        slower = dataclasses.replace(config, sfu_latency=config.sfu_latency + 1)
        runner.simulate_sm("BP", self.BASELINE, slower)
        assert len(runs) == 1

    def test_latency_sweep_at_unit_factor_reuses_prefetch(self, monkeypatch):
        names = ("BP", "HS", "MM")
        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(
            names=names,
            arches=(self.BASELINE, ArchitectureConfig.alu_scalar(), self.GSCALAR),
        )
        runs = self._engine_runs(monkeypatch)
        points = sweep_latency_parameter(
            runner, "alu_latency", (1.0,), benchmarks=names
        )
        assert runs == []
        assert points == sweep_latency_parameter_events(
            runner, "alu_latency", (1.0,), names
        )

    def test_prefetched_latency_sweep_builds_no_table(self, monkeypatch):
        """After prefetch, a latency sweep reads each pair's memoized op
        table and digest: nothing is passed, interpreted, lowered or
        hashed."""
        from repro.experiments import streaming
        from repro.timing.ops import TimingOpTable

        names = ("BP", "HS")
        factors = (0.5, 1.0, 2.0)
        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(
            names=names,
            arches=(self.BASELINE, ArchitectureConfig.alu_scalar(), self.GSCALAR),
        )
        expected = sweep_latency_parameter_events(runner, "alu_latency", factors, names)
        tables = runner.stats.counters["op_tables"]

        def fail(*args, **kwargs):
            raise AssertionError("built an op table after prefetch")

        for name in ("classify_columnar_batch", "process_columns",
                     "build_timing_ops_columns"):
            monkeypatch.setattr(streaming, name, fail)
        monkeypatch.setattr(TimingOpTable, "digest", fail)
        points = sweep_latency_parameter(runner, "alu_latency", factors, names)
        assert points == expected
        assert runner.stats.counters["op_tables"] == tables

    def test_timeline_after_timing_builds_no_table(self, monkeypatch):
        from repro.experiments import streaming

        runner = ExperimentRunner(scale="tiny")
        expected = runner.timing("BP", self.GSCALAR)
        tables = runner.stats.counters["op_tables"]

        def fail(*args, **kwargs):
            raise AssertionError("timeline built an op table")

        for name in ("classify_columnar_batch", "process_columns",
                     "build_timing_ops_columns"):
            monkeypatch.setattr(streaming, name, fail)
        assert runner.timeline("BP", self.GSCALAR, FlightRecorder()) == expected
        assert runner.stats.counters["op_tables"] == tables

    def test_timeline_always_simulates_and_leaves_the_memo(self, monkeypatch):
        runner = ExperimentRunner(scale="tiny")
        runs = self._engine_runs(monkeypatch)
        for _ in range(2):
            runner.timeline("BP", self.GSCALAR, FlightRecorder())
        assert len(runs) == 2
        # The recorded runs stored nothing: the next lookup simulates.
        runner.timing("BP", self.GSCALAR)
        assert len(runs) == 3
        assert runner.stats.counters.get("sm_reuses", 0) == 0


def reachable(root, kinds: tuple[type, ...]) -> list:
    """The objects of ``kinds`` reachable from ``root`` through
    containers, instances and closures; modules and classes, which
    reach everything, are not entered."""
    namespaces = {id(vars(module)) for module in list(sys.modules.values())
                  if hasattr(module, "__dict__")}
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in namespaces or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestRelease:
    """``prefetch`` drops each benchmark's trace and memory image after
    its pass.  What later requests read stays: the kernel and launch,
    the trace fingerprint, summaries, op-table memo entries, aggregates
    and results.  A request that needs a pass executes again."""

    NAMES = ("BP", "HS", "MM")
    HELD = (ColumnarTrace, MemoryImage)

    def test_serial_prefetch_holds_no_trace_or_image(self):
        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(
            names=self.NAMES, experiments=tuple(BUILDERS), arches=paper_architectures()
        )
        # Warp 32 and Figure 10's warp 64, once each.
        executions = runner.stats.trace_executions
        assert executions == 2 * len(self.NAMES)
        assert reachable(runner, self.HELD) == []
        lazy = ExperimentRunner(scale="tiny")
        for abbr in self.NAMES:
            for name in BUILDERS:
                assert runner.summary(abbr, name) == lazy.summary(abbr, name)
            for arch in paper_architectures():
                assert runner.timing(abbr, arch) == lazy.timing(abbr, arch)
                assert runner.power(abbr, arch) == lazy.power(abbr, arch)
        assert runner.stats.trace_executions == executions
        # Lazy requests keep their runs: the walk does reach them.
        assert {type(item) for item in reachable(lazy, self.HELD)} == set(self.HELD)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cached_prefetch_holds_no_image(self, tmp_path, jobs):
        """Cold and warm, serial and pooled: a cached runner builds each
        workload to derive its fingerprint and drops the image after."""
        for _ in range(2):
            runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
            runner.prefetch(
                names=self.NAMES,
                jobs=jobs,
                experiments=("counts",),
                arches=paper_architectures()[:1],
            )
            assert reachable(runner, self.HELD) == []
            assert sorted(runner._trace_fingerprints) == sorted(self.NAMES)
        assert runner.stats.trace_executions == 0

    def test_kernel_and_launch_stay(self, monkeypatch):
        from repro.experiments import runner as runner_module

        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(
            names=self.NAMES,
            arches=(
                ArchitectureConfig.baseline(),
                ArchitectureConfig.alu_scalar(),
                ArchitectureConfig.gscalar(),
            ),
        )
        fresh = ExperimentRunner(scale="tiny")
        expected = [
            (fresh.warps_per_cta(abbr), fresh.width_analysis(abbr))
            for abbr in self.NAMES
        ]

        def fail(name):
            raise AssertionError(f"built {name} again")

        monkeypatch.setattr(runner_module, "workload_by_name", fail)
        assert expected == [
            (runner.warps_per_cta(abbr), runner.width_analysis(abbr))
            for abbr in self.NAMES
        ]
        points = sweep_latency_parameter(
            runner, "alu_latency", (0.5, 1.0), benchmarks=self.NAMES
        )
        assert [point.scale_factor for point in points] == [0.5, 1.0]

    def test_a_later_pass_executes_once_more(self):
        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(names=self.NAMES, arches=paper_architectures())
        executions = runner.stats.trace_executions
        arch = ArchitectureConfig.static_compress()
        power = runner.power("HS", arch)
        assert runner.stats.trace_executions == executions + 1
        fresh = ExperimentRunner(scale="tiny")
        assert power == fresh.power("HS", arch)
        assert runner.timing("HS", arch) == fresh.timing("HS", arch)
        # A lazy request keeps its run, as before.
        assert runner.run("HS") is runner.run("HS")
        assert runner.stats.trace_executions == executions + 1

    def test_a_released_runner_stores_under_a_fresh_fingerprint(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.prefetch(
            names=self.NAMES, experiments=("counts",), arches=paper_architectures()
        )
        assert runner._workloads["HS"].memory is None
        arch = ArchitectureConfig.static_compress()
        power = runner.power("HS", arch)
        fig8 = runner.summary("HS", "fig8")
        fresh = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner._result_entry("HS", arch) == fresh._result_entry("HS", arch)
        assert runner._summary_entry("HS", "fig8") == fresh._summary_entry("HS", "fig8")
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.power("HS", arch) == power
        assert warm.summary("HS", "fig8") == fig8
        assert warm.stats.trace_executions == 0
        assert warm.stats.counters["result_cache_hits"] == 1
        assert warm.stats.counters["summary_cache_hits"] == 1

    def test_a_release_before_any_entry_derives_the_fingerprint(self, tmp_path):
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        runner.warps_per_cta("HS")  # builds the workload, derives nothing
        runner.prefetch(names=["HS"], arches=())
        assert runner._workloads["HS"].memory is None
        runner.summary("HS", "counts")
        fresh = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert fresh.summary("HS", "counts") == runner.summary("HS", "counts")
        assert fresh.stats.counters == {"summary_cache_hits": 1}


class TestRunnerStats:
    def test_merge_accepts_stats_and_dicts(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 2)
        stats.add_time("classify", 0.5)
        other = RunnerStats()
        other.bump("trace_executions")
        other.bump("result_cache_hits", 3)
        other.add_time("classify", 0.25)
        stats.merge(other)
        stats.merge({"telemetry": other.telemetry.snapshot()})
        assert stats.trace_executions == 4
        assert stats.counters["result_cache_hits"] == 6
        assert stats.stage_seconds["classify"] == pytest.approx(1.0)

    def test_to_dict_round_trips_through_merge(self):
        stats = RunnerStats()
        stats.bump("trace_executions", 5)
        stats.add_time("classify", 0.5)
        rebuilt = RunnerStats()
        rebuilt.merge({"telemetry": stats.telemetry.snapshot()})
        assert rebuilt.trace_executions == 5
        assert rebuilt.stage_seconds == stats.stage_seconds


class TestTraceCache:
    """The on-disk cache: one ``summary`` entry per (benchmark,
    summary) and one ``result`` entry per (benchmark, architecture),
    keyed on the trace's fingerprint; traces themselves are never
    stored."""

    def test_disk_cache_round_trip(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        stats_a = first.summary("HS", "counts")
        assert store.entry_path(tmp_path, "HS_tiny_counts").exists()
        assert first.stats.trace_executions == 1
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        stats_b = second.summary("HS", "counts")
        assert second.stats.trace_executions == 0
        assert second.stats.counters["summary_cache_hits"] == 1
        assert stats_a == stats_b
        # The cache holds no trace and no classified columns.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"HS_tiny_counts{store.ENTRY_SUFFIX}"
        ]

    def test_cold_miss_packs_each_trace_once(self, tmp_path, monkeypatch):
        """A cold cached run packs each executed trace exactly once;
        Figure 10's warp-64 trace is executed for its summary only."""
        from repro.simt.trace import ColumnarTrace

        packed = []
        original = ColumnarTrace.pack.__func__

        def counting(cls, kernel_name, warp_size, warps):
            packed.append(warp_size)
            return original(cls, kernel_name, warp_size, warps)

        monkeypatch.setattr(ColumnarTrace, "pack", classmethod(counting))
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.run("HS").columnar.warp_size == 32
        runner.summary("HS", "fig10")
        runner.summary("HS", "counts")
        assert packed == [32, 64]

    def test_fig10_summary_cached_on_disk(self, tmp_path):
        first = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        stats_a = first.summary("hs", "fig10")
        assert first.stats.trace_executions == 2  # warp 32 + warp 64
        second = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert second.summary("HS", "fig10") == stats_a
        assert second.stats.trace_executions == 0

    def test_fingerprint_mismatch_triggers_reexecution(self, tmp_path):
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        good = seeded.summary("HS", "counts")
        path = store.entry_path(tmp_path, "HS_tiny_counts")
        # Rewrite the header under a wrong fingerprint, simulating a
        # kernel/scale edit since the summary was built.
        with open(path, "rb") as handle:
            layout, kind, _ = pickle.load(handle)
            payload = handle.read()
        path.write_bytes(pickle.dumps((layout, kind, "0" * 16)) + payload)
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.summary("HS", "counts") == good
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["cache_invalid"] == 1
        # The stale entry was overwritten with a valid one.
        verifier = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        verifier.summary("HS", "counts")
        assert verifier.stats.trace_executions == 0

    def test_corrupt_cache_file_recovered(self, tmp_path):
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.summary("HS", "counts")
        store.entry_path(tmp_path, "HS_tiny_counts").write_bytes(b"not an entry")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.summary("HS", "counts") == expected
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["cache_invalid"] == 1
        # And the overwrite repaired the cache for the next process.
        repaired = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        repaired.summary("HS", "counts")
        assert repaired.stats.trace_executions == 0

    def test_corrupt_sidecar_recovered(self, tmp_path):
        """A damaged result entry is recomputed."""
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.power("HS", arch).ipc_per_watt
        store.entry_path(tmp_path, f"HS_tiny_results_{arch.name}").write_bytes(b"junk")
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.power("HS", arch).ipc_per_watt == expected
        assert runner.stats.counters["cache_invalid"] == 1
        assert runner.stats.counters["result_cache_misses"] == 1

    def test_result_sidecars_replay_timing_and_power(self, tmp_path):
        """Timing and power persist as one ``result`` entry whose
        replay equals the computed objects."""
        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        timing = seeded.timing("HS", arch)
        power = seeded.power("HS", arch)
        stem = f"HS_tiny_results_{arch.name}"
        assert store.entry_is_current(
            tmp_path, stem, seeded._result_entry("HS", arch)[1], "result"
        )
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert warm.power("HS", arch) == power
        assert warm.timing("HS", arch) == timing
        assert warm.stats.counters["result_cache_hits"] == 1
        assert warm.stats.trace_executions == 0
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

    def test_energy_params_do_not_key_summaries(self, tmp_path):
        """Summaries hold counts, so runners under other energy
        parameters read every summary entry on a shared cache."""
        from repro.power.energy import EnergyParams

        names = ("counts", "fig8", "fig12")
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        stored = [seeded.summary("HS", name) for name in names]
        for params in (EnergyParams(alu_lane_pj=99.0), None):
            reader = ExperimentRunner(scale="tiny", cache_dir=tmp_path, params=params)
            assert [reader.summary("HS", name) for name in names] == stored
            counters = reader.stats.counters
            assert counters.get("summary_cache_hits", 0) == 3, counters
            assert counters.get("cache_invalid", 0) == 0, counters
            assert reader.stats.trace_executions == 0

    def test_fig12_prices_cached_counts_under_the_runner_params(self, tmp_path):
        """Figure 12 read from a cache filled under the default energy
        parameters, by a runner with doubled full-access energy, equals
        a cache-less runner's Figure 12 at the doubled value."""
        from repro.experiments import fig12
        from repro.power.energy import DEFAULT_ENERGY

        doubled = dataclasses.replace(
            DEFAULT_ENERGY, rf_full_access_pj=2 * DEFAULT_ENERGY.rf_full_access_pj
        )
        fig12.compute(ExperimentRunner(scale="tiny", cache_dir=tmp_path))
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path, params=doubled)
        assert fig12.compute(warm) == fig12.compute(
            ExperimentRunner(scale="tiny", params=doubled)
        )
        assert warm.stats.counters["summary_cache_hits"] == 17

    def test_stale_sidecar_skipped_without_unpickling(self, tmp_path, monkeypatch):
        """A result entry left by different energy params is rejected
        from its header's fingerprint alone: its payload is never
        unpickled to find out."""
        from repro.power.energy import EnergyParams

        arch = ArchitectureConfig.gscalar()
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        seeded.power("HS", arch)
        loads = []
        original = pickle.load
        monkeypatch.setattr(
            store.pickle, "load", lambda handle: loads.append(1) or original(handle)
        )
        tweaked = ExperimentRunner(
            scale="tiny", cache_dir=tmp_path, params=EnergyParams(alu_lane_pj=99.0)
        )
        tweaked.power("HS", arch)
        counters = tweaked.stats.counters
        assert counters["cache_invalid"] == 1
        assert counters["result_cache_misses"] == 1
        assert loads == [1]  # the header only


def _write_pre_v5_cache(cache_dir):
    """A cache left by older checkouts: an HS ``.npz`` trace archive,
    pickle sidecars and v5 manifests under a fingerprint no current
    input produces."""
    import json

    import numpy as np

    from repro.experiments.runner import matrix_architectures
    from repro.simt.executor import run_kernel
    from repro.workloads.registry import build_workload

    built = build_workload("HS", scale="tiny")
    columnar = run_kernel(built.kernel, built.launch, built.memory)
    header = {"version": 3, "fingerprint": "0" * 16,
              "kernel_name": columnar.kernel_name, "warp_size": columnar.warp_size}
    np.savez_compressed(
        cache_dir / "HS_tiny.npz",
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        warp_ids=columnar.warp_ids,
        values=columnar.values,
    )
    stale = {"fingerprint": "0" * 16, "classified": [], "timing": None, "power": None}
    stems = ["HS_tiny", "HS_tiny_ccols"] + [
        f"HS_tiny_results_{arch.name}" for arch in matrix_architectures()
    ]
    for stem in stems:
        (cache_dir / f"{stem}.pkl").write_bytes(pickle.dumps(stale))
        manifest = {"layout": 5, "kind": "result", "fingerprint": "0" * 16,
                    "bank_dir": f"{stem}.{'0' * 16}.v5", "arrays": [], "objects": []}
        (cache_dir / f"{stem}.v5.json").write_text(json.dumps(manifest))
    return sorted(path.name for path in cache_dir.iterdir())


class TestTransport:
    def test_pre_v5_entries_are_a_miss(self, tmp_path):
        """Old cache files are never read or migrated: the runner
        executes once, replays none of them and writes current entries
        beside them."""
        from repro.experiments.runner import matrix_architectures

        old = _write_pre_v5_cache(tmp_path)
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            assert cold.power("HS", arch).ipc_per_watt > 0
        assert cold.stats.trace_executions == 1
        assert cold.stats.counters.get("result_cache_hits", 0) == 0
        assert "cache_invalid" not in cold.stats.counters
        new = sorted(set(p.name for p in tmp_path.iterdir()) - set(old))
        assert new == sorted(
            f"HS_tiny_results_{arch.name}{store.ENTRY_SUFFIX}"
            for arch in matrix_architectures()
        )

    def test_warm_hit_matches_uncached_runner(self, tmp_path, runner):
        """After the miss, a warm run reads the current entries and
        reports the same power as a runner without any cache, on every
        architecture, without executing."""
        from repro.experiments.runner import matrix_architectures

        _write_pre_v5_cache(tmp_path)
        seeder = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            seeder.power("HS", arch)
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        for arch in matrix_architectures():
            assert warm.power("HS", arch) == runner.power("HS", arch)
        assert warm.stats.trace_executions == 0
        assert warm.stats.counters["result_cache_hits"] == len(matrix_architectures())
