"""Cycle-vs-event SM engine gate on two production inputs.

Every command, ``repro timeline`` included, runs the event-driven SM
engine; the cycle-level :class:`~tests.reference.sm.SmSimulator` is its
oracle.  This gate runs the event engine through
:meth:`ExperimentRunner.timeline` and the cycle engine over
``to_ops()`` of the same lowered op table, for BP on the baseline and
LBM on G-Scalar at small scale.  LBM is DRAM-bound, so the gate also
covers coalesced memory segments and the ``to_ops()`` adapter.  It
compares the three fields the per-scheduler stall attribution rests
on; CI runs it in the timeline job.
"""

from __future__ import annotations

import pytest

from repro.config import architecture_by_name
from repro.experiments.runner import ExperimentRunner
from repro.timing.ops import build_timing_ops_columns

from tests.reference.sm import SmSimulator
from tests.reference.timing import to_ops


@pytest.mark.parametrize(
    ("bench", "arch_name"), [("BP", "baseline"), ("LBM", "gscalar")]
)
def test_cycle_and_event_engines_agree(bench, arch_name):
    arch = architecture_by_name(arch_name)
    runner = ExperimentRunner(scale="small")
    event = runner.timeline(bench, arch, None)
    table = build_timing_ops_columns(
        runner.classified_columns(bench),
        runner.processed_columns(bench, arch),
        arch,
        runner.config,
    )
    cycle = SmSimulator(
        to_ops(table),
        runner.config,
        extra_latency=arch.extra_pipeline_cycles,
        warps_per_cta=runner.warps_per_cta(bench),
    ).run()
    assert event.cycles == cycle.cycles
    assert event.issued_per_scheduler == cycle.issued_per_scheduler
    assert event.stalls_per_scheduler == cycle.stalls_per_scheduler
