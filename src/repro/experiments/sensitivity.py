"""Calibration-sensitivity analysis of the headline result.

The power model's constants are calibrated to GPUWattch's published
proportions (see ``repro.power.energy``), not measured from silicon, so
a reproduction should demonstrate that its conclusions do not hinge on
any one constant.  :func:`sweep_energy_parameter` re-evaluates the mean
normalized G-Scalar efficiency (Figure 11's headline) while scaling one
energy parameter across a range, reusing the runner's memoized power
aggregates and timing results — only the power evaluation reruns.
:func:`sweep_latency_parameter` scales one write-back latency instead
and re-simulates each pair's memoized op table through the runner's SM
memo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config import ArchitectureConfig
from repro.errors import ConfigError
from repro.power.accounting import PowerAccountant

#: Parameters that make sense to sweep (scalable floats).
SWEEPABLE = (
    "alu_lane_pj",
    "mem_lane_pj",
    "fds_per_instruction_pj",
    "rf_full_access_pj",
    "crossbar_per_byte_pj",
    "l1_access_pj",
    "l2_access_pj",
    "dram_access_pj",
    "sm_static_w",
    "uncore_share_static_w",
)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sensitivity sweep."""

    parameter: str
    scale_factor: float
    value: float
    mean_gscalar_gain: float
    mean_alu_scalar_gain: float


def _check_factors(scale_factors: tuple[float, ...]) -> None:
    """Reject a non-positive factor before any point does work."""
    for factor in scale_factors:
        if factor <= 0:
            raise ConfigError(f"scale factors must be positive, got {factor}")


def _points(
    runner,
    parameter: str,
    scale_factors: tuple[float, ...],
    values: list,
    benchmarks: tuple[str, ...] | None,
    reports,
) -> list[SweepPoint]:
    """Mean G-Scalar and ALU-scalar gain over the baseline per point.

    ``reports(abbr, arch)`` returns one pair's power report at every
    point, so pairs run outermost and a pair's points are evaluated
    together; each point's gains are summed in benchmark order.
    """
    names = list(benchmarks) if benchmarks else runner.benchmark_names()
    arches = (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.alu_scalar(),
        ArchitectureConfig.gscalar(),
    )
    gains: list[list[tuple[float, float]]] = [[] for _ in scale_factors]
    for abbr in names:
        efficiency = [
            [report.ipc_per_watt for report in reports(abbr, arch)] for arch in arches
        ]
        for point_gains, (base, alu, gscalar) in zip(gains, zip(*efficiency)):
            point_gains.append((gscalar / base, alu / base))

    points = []
    for factor, value, point_gains in zip(scale_factors, values, gains):
        gscalar_gain = 0.0
        alu_gain = 0.0
        for gscalar_ratio, alu_ratio in point_gains:
            gscalar_gain += gscalar_ratio
            alu_gain += alu_ratio
        points.append(
            SweepPoint(
                parameter=parameter,
                scale_factor=factor,
                value=float(value),
                mean_gscalar_gain=gscalar_gain / len(names),
                mean_alu_scalar_gain=alu_gain / len(names),
            )
        )
    return points


def sweep_energy_parameter(
    runner,
    parameter: str,
    scale_factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0),
    benchmarks: tuple[str, ...] | None = None,
) -> list[SweepPoint]:
    """Sweep one energy parameter; return the headline gain per point.

    ``runner`` is an :class:`~repro.experiments.runner.ExperimentRunner`
    whose timing results and power aggregates are reused across all
    points.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"{parameter!r} is not sweepable; choose from {', '.join(SWEEPABLE)}"
        )
    _check_factors(scale_factors)
    base_value = getattr(runner.params, parameter)
    values = [base_value * factor for factor in scale_factors]
    params = [
        dataclasses.replace(runner.params, **{parameter: value}) for value in values
    ]

    def reports(abbr, arch):
        # Timing first: a cold runner builds the pair's aggregates with
        # it instead of in a pass of their own.
        timing = runner.timing(abbr, arch)
        aggregates = runner.power_aggregates(abbr, arch)
        return [
            PowerAccountant(arch, point, runner.config).account_aggregates(
                aggregates, timing
            )
            for point in params
        ]

    return _points(runner, parameter, scale_factors, values, benchmarks, reports)


#: GpuConfig timing latencies that make sense to sweep (integer cycles).
SWEEPABLE_LATENCIES = (
    "alu_latency",
    "long_alu_latency",
    "sfu_latency",
    "ctrl_latency",
)


def sweep_latency_parameter(
    runner,
    parameter: str,
    scale_factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0),
    benchmarks: tuple[str, ...] | None = None,
) -> list[SweepPoint]:
    """Sweep one GpuConfig write-back latency; headline gain per point.

    Unlike the energy sweeps, a latency change alters cycle counts, so
    each point simulates through the runner's SM memo
    (:meth:`~repro.experiments.runner.ExperimentRunner.simulate_sm_configs`):
    only distinct points are simulated.  Lowering reads no write-back
    latency, so every point of a pair simulates the pair's one memoized
    op table.  A pair's points are asked for together: a chunked runner
    streams a pair at most once for the whole sweep.  A point
    whose latency equals the runner's (factor 1.0) reuses the runner's
    own results, and factors that round to one latency share their
    simulations.  Latencies are integers: each point uses ``max(1,
    round(base * factor))`` cycles.  Every factor is validated before
    any work.  Each pair's power aggregates are the runner's one
    reduction
    (:meth:`~repro.experiments.runner.ExperimentRunner.power_aggregates`).
    """
    if parameter not in SWEEPABLE_LATENCIES:
        raise ConfigError(
            f"{parameter!r} is not a sweepable latency; choose from "
            f"{', '.join(SWEEPABLE_LATENCIES)}"
        )
    _check_factors(scale_factors)
    base_value = getattr(runner.config, parameter)
    values = [max(1, round(base_value * factor)) for factor in scale_factors]
    configs = [
        dataclasses.replace(runner.config, **{parameter: value}) for value in values
    ]

    def reports(abbr, arch):
        timings = runner.simulate_sm_configs(abbr, arch, configs)
        aggregates = runner.power_aggregates(abbr, arch)
        return [
            PowerAccountant(arch, runner.params, config).account_aggregates(
                aggregates, timing
            )
            for config, timing in zip(configs, timings)
        ]

    return _points(runner, parameter, scale_factors, values, benchmarks, reports)


def headline_is_robust(
    points: list[SweepPoint], floor: float = 1.0
) -> bool:
    """Does G-Scalar beat the baseline AND ALU-scalar at every point?"""
    return all(
        p.mean_gscalar_gain > floor
        and p.mean_gscalar_gain >= p.mean_alu_scalar_gain
        for p in points
    )
