"""Cycle-vs-event SM engine gate on production inputs.

Every command, ``repro timeline`` included, runs the event-driven SM
engine; the cycle-level :class:`~tests.reference.sm.SmSimulator` is its
oracle.  This gate runs the event engine through
:meth:`ExperimentRunner.timeline` and the cycle engine over
``to_ops()`` of the same lowered op table, for BP on the baseline and
LBM on G-Scalar at small scale: at the default ALU latency, and at the
other two latencies the design sweep simulates.  LBM is DRAM-bound, so
the gate also covers coalesced memory segments and the ``to_ops()``
adapter.  It compares every ``TimingResult`` field; CI runs it in the
timeline job, together with :func:`check_design_sweep_inputs`.
"""

from __future__ import annotations

import pytest

from repro.config import ArchitectureConfig, GpuConfig, architecture_by_name
from repro.experiments.runner import ExperimentRunner
from repro.timing.ops import build_timing_ops_columns
from repro.workloads.registry import all_workloads

from tests.oracles import classified_columns, processed_columns
from tests.reference.sm import SmSimulator
from tests.reference.timing import to_ops
from tests.timing.test_sm_event import _assert_identical

PAIRS = [("BP", "baseline"), ("LBM", "gscalar")]

#: The ALU latencies of the benchmark's design sweep: factors 0.5, 1
#: and 2 of the default 18 cycles.
SWEPT_ALU_LATENCIES = (9, 18, 36)


def _warp_ops(runner, bench, arch):
    """``to_ops()`` of the pair's lowered op table."""
    return to_ops(
        build_timing_ops_columns(
            classified_columns(runner, bench),
            processed_columns(runner, bench, arch),
            arch,
            runner.config,
        )
    )


def _reference(warp_ops, arch, config, warps_per_cta):
    """The cycle engine's result over one pair's ``warp_ops``."""
    return SmSimulator(
        warp_ops,
        config,
        extra_latency=arch.extra_pipeline_cycles,
        warps_per_cta=warps_per_cta,
    ).run()


def _assert_engines_agree(bench, arch_name, config):
    arch = architecture_by_name(arch_name)
    runner = ExperimentRunner(scale="small", config=config)
    event = runner.timeline(bench, arch, None)
    reference = _reference(
        _warp_ops(runner, bench, arch), arch, config, runner.warps_per_cta(bench)
    )
    _assert_identical(reference, event, f"{bench}/{arch_name}")


@pytest.mark.parametrize(("bench", "arch_name"), PAIRS)
def test_cycle_and_event_engines_agree(bench, arch_name):
    _assert_engines_agree(bench, arch_name, GpuConfig())


@pytest.mark.parametrize("alu_latency", [9, 36])
@pytest.mark.parametrize(("bench", "arch_name"), PAIRS)
def test_engines_agree_at_swept_alu_latencies(bench, arch_name, alu_latency):
    _assert_engines_agree(bench, arch_name, GpuConfig(alu_latency=alu_latency))


def check_design_sweep_inputs() -> int:
    """Every SM input of the design sweep through both engines.

    17 small-scale benchmarks x baseline, ALU-scalar and G-Scalar x
    :data:`SWEPT_ALU_LATENCIES`: the event engine runs through the
    runner's :meth:`~ExperimentRunner.simulate_sm_configs`, as the
    sweep does, and every ``TimingResult`` field must equal the cycle
    engine's.  Returns the number of inputs checked (153).
    """
    runner = ExperimentRunner(scale="small")
    configs = [GpuConfig(alu_latency=latency) for latency in SWEPT_ALU_LATENCIES]
    arches = (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.alu_scalar(),
        ArchitectureConfig.gscalar(),
    )
    checked = 0
    for spec in all_workloads():
        for arch in arches:
            events = runner.simulate_sm_configs(spec.abbr, arch, configs)
            warp_ops = _warp_ops(runner, spec.abbr, arch)
            warps_per_cta = runner.warps_per_cta(spec.abbr)
            for config, event in zip(configs, events):
                _assert_identical(
                    _reference(warp_ops, arch, config, warps_per_cta),
                    event,
                    f"{spec.abbr}/{arch.name}/alu_latency={config.alu_latency}",
                )
                checked += 1
    return checked
