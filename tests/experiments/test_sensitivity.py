"""Tests for the calibration-sensitivity sweep."""

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sensitivity import (
    SWEEPABLE,
    headline_is_robust,
    sweep_energy_parameter,
    sweep_latency_parameter,
)

from tests.oracles import (
    sweep_energy_parameter_events,
    sweep_latency_parameter_events,
)


@pytest.fixture(scope="module")
def runner(shared_runner):
    return shared_runner


BENCHES = ("BP", "HS", "MM")


class TestSweep:
    def test_static_power_sweep_shape(self, runner):
        points = sweep_energy_parameter(
            runner, "sm_static_w", (0.5, 1.0, 2.0), benchmarks=BENCHES
        )
        assert len(points) == 3
        # More static power dilutes dynamic savings: gain shrinks.
        gains = [p.mean_gscalar_gain for p in points]
        assert gains[0] > gains[1] > gains[2]
        # But the conclusion survives a 2x mis-calibration either way.
        assert headline_is_robust(points)

    def test_rf_energy_sweep_helps_gscalar(self, runner):
        points = sweep_energy_parameter(
            runner, "rf_full_access_pj", (0.5, 1.0, 2.0), benchmarks=BENCHES
        )
        gains = [p.mean_gscalar_gain for p in points]
        # The more the RF costs, the more compression saves.
        assert gains[2] > gains[0]
        assert headline_is_robust(points)

    def test_alu_energy_sweep(self, runner):
        points = sweep_energy_parameter(
            runner, "alu_lane_pj", (0.5, 1.0, 2.0), benchmarks=BENCHES
        )
        assert headline_is_robust(points)

    def test_values_scale_correctly(self, runner):
        points = sweep_energy_parameter(
            runner, "dram_access_pj", (0.5, 1.0), benchmarks=("BP",)
        )
        assert points[1].value == pytest.approx(2 * points[0].value)
        assert points[0].parameter == "dram_access_pj"

    def test_unknown_parameter_rejected(self, runner):
        with pytest.raises(ConfigError):
            sweep_energy_parameter(runner, "magic_pj", (1.0,))

    def test_nonpositive_factor_rejected(self, runner):
        with pytest.raises(ConfigError):
            sweep_energy_parameter(runner, "alu_lane_pj", (0.0,), benchmarks=("BP",))

    def test_sweepable_list_matches_energy_params(self):
        from repro.power.energy import DEFAULT_ENERGY

        for name in SWEEPABLE:
            assert hasattr(DEFAULT_ENERGY, name)


class TestHeadlineRobustness:
    """The power model is calibrated to GPUWattch's published
    proportions, so the headline (G-Scalar beats both the baseline and
    the ALU-scalar architecture) must survive large mis-calibrations of
    any single energy constant, on the whole suite.  Run with ``-s`` to
    see the mean gains docs/calibration.md quotes."""

    PARAMETERS = ("sm_static_w", "rf_full_access_pj", "alu_lane_pj", "dram_access_pj")

    @pytest.fixture(scope="class")
    def sweeps(self, runner):
        return {
            parameter: sweep_energy_parameter(runner, parameter, (0.5, 1.0, 2.0))
            for parameter in self.PARAMETERS
        }

    def test_headline_survives_every_sweep(self, sweeps):
        print()
        for parameter, points in sweeps.items():
            series = ", ".join(
                f"{p.scale_factor}x -> {p.mean_gscalar_gain:.2f}" for p in points
            )
            print(f"  {parameter:22s}: {series}")
            assert headline_is_robust(points), parameter

    def test_directional_physics(self, sweeps):
        # Static power dilutes the gain, RF energy amplifies it.
        static = sweeps["sm_static_w"]
        assert static[0].mean_gscalar_gain > static[-1].mean_gscalar_gain
        rf = sweeps["rf_full_access_pj"]
        assert rf[-1].mean_gscalar_gain > rf[0].mean_gscalar_gain


class TestLatencySweep:
    def test_latency_sweep_shape_and_values(self, runner):
        from repro.experiments.sensitivity import (
            SWEEPABLE_LATENCIES,
            sweep_latency_parameter,
        )

        points = sweep_latency_parameter(
            runner, "alu_latency", (0.5, 1.0, 2.0), benchmarks=("BP",)
        )
        assert [p.scale_factor for p in points] == [0.5, 1.0, 2.0]
        base = runner.config.alu_latency
        assert [p.value for p in points] == [
            float(max(1, round(base * f))) for f in (0.5, 1.0, 2.0)
        ]
        for point in points:
            assert point.mean_gscalar_gain > 0
        assert set(SWEEPABLE_LATENCIES) <= {
            "alu_latency",
            "long_alu_latency",
            "sfu_latency",
            "ctrl_latency",
        }

    def test_latency_changes_move_the_result(self, runner):
        from repro.experiments.sensitivity import sweep_latency_parameter

        points = sweep_latency_parameter(
            runner, "alu_latency", (0.5, 2.0), benchmarks=("BP",)
        )
        # Different write-back latencies must actually change cycle
        # counts, hence the headline efficiencies.
        assert points[0].mean_gscalar_gain != points[1].mean_gscalar_gain

    def test_unknown_latency_rejected(self, runner):
        from repro.experiments.sensitivity import sweep_latency_parameter

        with pytest.raises(ConfigError):
            sweep_latency_parameter(runner, "alu_lane_pj")

    def test_nonpositive_latency_factor_rejected(self, runner):
        from repro.experiments.sensitivity import sweep_latency_parameter

        with pytest.raises(ConfigError):
            sweep_latency_parameter(runner, "alu_latency", (0.0,))

    def test_every_factor_is_checked_before_simulating(self, monkeypatch):
        from repro.timing.sm_event import EventSmSimulator

        def fail(self, *args, **kwargs):
            raise AssertionError("simulated before validating the factors")

        monkeypatch.setattr(EventSmSimulator, "run", fail)
        with pytest.raises(ConfigError):
            sweep_latency_parameter(
                ExperimentRunner(scale="tiny"), "alu_latency", (1.0, 0.0)
            )


class TestPowerAggregatesMemo:
    def test_sweeps_reuse_the_prefetched_aggregates(self, monkeypatch):
        """Both sweeps evaluate the power aggregates the runner reduced
        while prefetching its results; none is reduced again."""
        from repro.config import ArchitectureConfig
        from repro.power.accounting import PowerAccountant

        names = ("BP", "HS")
        factors = (0.5, 1.0, 2.0)
        arches = (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        )
        fresh = ExperimentRunner(scale="tiny")
        energy = sweep_energy_parameter(fresh, "rf_full_access_pj", factors, names)
        latency = sweep_latency_parameter(fresh, "alu_latency", factors, names)

        runner = ExperimentRunner(scale="tiny")
        runner.prefetch(names=names, arches=arches)

        def fail(*args, **kwargs):
            raise AssertionError("power aggregates reduced after prefetch")

        monkeypatch.setattr(PowerAccountant, "aggregates_from_columns", fail)
        assert energy == sweep_energy_parameter(
            runner, "rf_full_access_pj", factors, names
        )
        assert latency == sweep_latency_parameter(runner, "alu_latency", factors, names)


class TestColumnarEnginesMatchEventEngines:
    """The sweeps run on the columnar engines; the points stay exact."""

    def test_energy_sweep_points_identical(self, runner):
        factors = (0.5, 1.0, 2.0)
        assert sweep_energy_parameter(
            runner, "rf_full_access_pj", factors, benchmarks=BENCHES
        ) == sweep_energy_parameter_events(
            runner, "rf_full_access_pj", factors, BENCHES
        )

    def test_latency_sweep_points_identical(self, runner):
        factors = (0.5, 1.0, 2.0)
        assert sweep_latency_parameter(
            runner, "alu_latency", factors, benchmarks=BENCHES
        ) == sweep_latency_parameter_events(runner, "alu_latency", factors, BENCHES)


class TestChunkedRunnerSweeps:
    def test_sweeps_never_build_whole_trace_columns(self, monkeypatch):
        """On a chunked runner both sweeps read the streamed passes'
        digests and aggregates, streaming a pair again only where a
        latency point must simulate: no whole-trace classification or
        interpretation, and the unchunked runner's points."""
        from repro.config import ArchitectureConfig
        from repro.experiments import streaming

        names = ("BP", "HS")
        factors = (0.5, 1.0, 2.0)
        arches = (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        )
        whole = ExperimentRunner(scale="tiny")
        energy = sweep_energy_parameter(whole, "rf_full_access_pj", factors, names)
        latency = sweep_latency_parameter(whole, "alu_latency", factors, names)

        # 64 events cut both tiny traces (two warps of 49-95 events
        # each) into several chunks, so their op tables are not kept.
        runner = ExperimentRunner(scale="tiny", chunk_events=64)
        runner.prefetch(names=names, arches=arches)

        classify = streaming.classify_columnar_batch

        def chunk_only(columnar, num_registers):
            assert columnar.num_events <= 64 or columnar.num_warps == 1, (
                "a chunked runner classified more than a chunk"
            )
            return classify(columnar, num_registers)

        monkeypatch.setattr(streaming, "classify_columnar_batch", chunk_only)
        assert energy == sweep_energy_parameter(
            runner, "rf_full_access_pj", factors, names
        )
        streams = runner.stats.counters["op_tables"]
        assert latency == sweep_latency_parameter(runner, "alu_latency", factors, names)
        # One re-stream per pair for all of its points.
        assert runner.stats.counters["op_tables"] == streams + len(names) * len(arches)
        stages = runner.stats.stage_seconds
        assert "classify" not in stages and "process" not in stages, stages
        assert "stream" in stages, stages
