"""Calibration-sensitivity analysis of the headline result.

The power model's constants are calibrated to GPUWattch's published
proportions (see ``repro.power.energy``), not measured from silicon, so
a reproduction should demonstrate that its conclusions do not hinge on
any one constant.  :func:`sweep_energy_parameter` re-evaluates the mean
normalized G-Scalar efficiency (Figure 11's headline) while scaling one
energy parameter across a range, reusing the runner's memoized power
aggregates and timing results — only the power evaluation reruns.
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


def sweep_energy_parameter(
    runner,
    parameter: str,
    scale_factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0),
    benchmarks: tuple[str, ...] | None = None,
) -> list[SweepPoint]:
    """Sweep one energy parameter; return the headline gain per point.

    ``runner`` is an :class:`~repro.experiments.runner.ExperimentRunner`
    whose traces and timing results are reused across all points.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"{parameter!r} is not sweepable; choose from {', '.join(SWEEPABLE)}"
        )
    names = list(benchmarks) if benchmarks else runner.benchmark_names()
    baseline_arch = ArchitectureConfig.baseline()
    alu_arch = ArchitectureConfig.alu_scalar()
    gscalar_arch = ArchitectureConfig.gscalar()
    base_value = getattr(runner.params, parameter)

    for factor in scale_factors:
        if factor <= 0:
            raise ConfigError(f"scale factors must be positive, got {factor}")

    points = []
    for factor in scale_factors:
        params = dataclasses.replace(runner.params, **{parameter: base_value * factor})
        gscalar_gain = 0.0
        alu_gain = 0.0
        for abbr in names:
            efficiencies = {}
            for arch in (baseline_arch, alu_arch, gscalar_arch):
                accountant = PowerAccountant(arch, params, runner.config)
                report = accountant.account_aggregates(
                    runner.power_aggregates(abbr, arch), runner.timing(abbr, arch)
                )
                efficiencies[arch.name] = report.ipc_per_watt
            gscalar_gain += efficiencies["gscalar"] / efficiencies["baseline"]
            alu_gain += efficiencies["alu_scalar"] / efficiencies["baseline"]
        points.append(
            SweepPoint(
                parameter=parameter,
                scale_factor=factor,
                value=base_value * factor,
                mean_gscalar_gain=gscalar_gain / len(names),
                mean_alu_scalar_gain=alu_gain / len(names),
            )
        )
    return points


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
    each point lowers the runner's cached processed columns under its
    configuration and simulates through the runner's SM memo
    (:meth:`~repro.experiments.runner.ExperimentRunner.simulate_sm`):
    only distinct points are simulated.  A point whose latency equals
    the runner's (factor 1.0) reuses the runner's own results, and
    factors that round to one latency share their simulations.
    Latencies are integers: each point uses ``max(1, round(base *
    factor))`` cycles.  Every factor is validated before any work.
    Each pair's power aggregates are the runner's one reduction
    (:meth:`~repro.experiments.runner.ExperimentRunner.power_aggregates`).
    """
    if parameter not in SWEEPABLE_LATENCIES:
        raise ConfigError(
            f"{parameter!r} is not a sweepable latency; choose from "
            f"{', '.join(SWEEPABLE_LATENCIES)}"
        )
    names = list(benchmarks) if benchmarks else runner.benchmark_names()
    baseline_arch = ArchitectureConfig.baseline()
    alu_arch = ArchitectureConfig.alu_scalar()
    gscalar_arch = ArchitectureConfig.gscalar()
    base_value = getattr(runner.config, parameter)
    for factor in scale_factors:
        if factor <= 0:
            raise ConfigError(f"scale factors must be positive, got {factor}")

    points = []
    for factor in scale_factors:
        value = max(1, round(base_value * factor))
        config = dataclasses.replace(runner.config, **{parameter: value})
        gscalar_gain = 0.0
        alu_gain = 0.0
        for abbr in names:
            efficiencies = {}
            for arch in (baseline_arch, alu_arch, gscalar_arch):
                timing = runner.simulate_sm(abbr, arch, config)
                accountant = PowerAccountant(arch, runner.params, config)
                report = accountant.account_aggregates(
                    runner.power_aggregates(abbr, arch), timing
                )
                efficiencies[arch.name] = report.ipc_per_watt
            gscalar_gain += efficiencies["gscalar"] / efficiencies["baseline"]
            alu_gain += efficiencies["alu_scalar"] / efficiencies["baseline"]
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


def headline_is_robust(
    points: list[SweepPoint], floor: float = 1.0
) -> bool:
    """Does G-Scalar beat the baseline AND ALU-scalar at every point?"""
    return all(
        p.mean_gscalar_gain > floor
        and p.mean_gscalar_gain >= p.mean_alu_scalar_gain
        for p in points
    )
