"""Differential tests: event-driven SM engine vs the cycle-level reference.

The event engine's contract is *bit-identical* ``TimingResult`` output —
cycles, instruction counts, memory counters, per-scheduler issue counts,
conflict and stall counters — for any op stream the cycle model accepts.
These tests pin that on every paper workload × architecture, on both
scheduler policies, on barrier-coordinated CTAs and on randomized op
streams.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.experiments.runner import matrix_architectures, paper_architectures
from repro.isa.opcodes import OpCategory
from repro.scalar.architectures import process_classified
from repro.scalar.tracker import classify_trace
from repro.simt.executor import run_kernel
from repro.timing.gpu import lower_to_timing_ops
from repro.timing.ops import TimingOp, TimingOpTable
from repro.timing.sm import SmSimulator
from repro.timing.sm_event import (
    DEFAULT_SM_ENGINE,
    SM_ENGINE_CHOICES,
    EventSmSimulator,
    create_sm_simulator,
)
from repro.workloads.registry import all_workloads, build_workload
from tests.timing.test_sm_properties import random_ops

WORKLOADS = [spec.abbr for spec in all_workloads()]
EMPTY = TimingOpTable.from_ops([])


def _assert_identical(ref, got, context: str) -> None:
    if ref == got:
        return
    diffs = []
    for field in dataclasses.fields(ref):
        r, g = getattr(ref, field.name), getattr(got, field.name)
        if r != g:
            diffs.append(f"{field.name}: cycle={r} event={g}")
    raise AssertionError(f"{context}: " + "; ".join(diffs))


def _run_both(warp_ops, config, extra_latency=0, warps_per_cta=None):
    ref = SmSimulator(
        warp_ops, config, extra_latency=extra_latency, warps_per_cta=warps_per_cta
    ).run(max_cycles=2_000_000)
    got = EventSmSimulator(
        TimingOpTable.from_ops(warp_ops),
        config,
        extra_latency=extra_latency,
        warps_per_cta=warps_per_cta,
    ).run(max_cycles=2_000_000)
    return ref, got


@pytest.fixture(scope="module")
def workload_streams():
    """Per-workload (classified, warp_size, warps_per_cta, static
    widths), traced once.  The width table feeds the static-compression
    architecture's interpretation (``None`` is fine for the others)."""
    streams = {}
    for abbr in WORKLOADS:
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(trace, built.kernel.num_registers)
        streams[abbr] = (
            classified,
            trace.warp_size,
            built.launch.warps_per_cta(trace.warp_size),
            analyze_widths(built.kernel, warp_size=trace.warp_size).register_enc,
        )
    return streams


class TestWorkloadDifferential:
    """All 17 workloads × 5 architectures, bit-identical TimingResult.

    ``matrix_architectures()`` is the paper's four plus the
    statically-compressed RF design point; the equality covers every
    ``TimingResult`` field (via ``dataclasses.fields``), so the
    per-scheduler stall-cause attributions are pinned bit-identically
    between the two engines on every pair.
    """

    @pytest.mark.parametrize("abbr", WORKLOADS)
    def test_all_architectures_identical(self, workload_streams, abbr):
        classified, warp_size, warps_per_cta, widths = workload_streams[abbr]
        config = GpuConfig()
        for arch in matrix_architectures():
            processed = process_classified(
                classified,
                arch,
                warp_size,
                static_widths=widths if arch.static_compression else None,
            )
            warp_ops = lower_to_timing_ops(processed, arch, config, warp_size)
            ref, got = _run_both(
                warp_ops,
                config,
                extra_latency=arch.extra_pipeline_cycles,
                warps_per_cta=warps_per_cta,
            )
            _assert_identical(ref, got, f"{abbr}/{arch.name}")

    @pytest.mark.parametrize("abbr", ("BP", "HS"))
    def test_gto_policy_identical(self, workload_streams, abbr):
        classified, warp_size, warps_per_cta, _ = workload_streams[abbr]
        config = GpuConfig(scheduler_policy=SchedulerPolicy.GTO)
        for arch in paper_architectures():
            processed = process_classified(classified, arch, warp_size)
            warp_ops = lower_to_timing_ops(processed, arch, config, warp_size)
            ref, got = _run_both(
                warp_ops,
                config,
                extra_latency=arch.extra_pipeline_cycles,
                warps_per_cta=warps_per_cta,
            )
            _assert_identical(ref, got, f"{abbr}/{arch.name}/GTO")


class TestRandomStreamDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        warps=st.lists(random_ops(), min_size=0, max_size=6),
        policy=st.sampled_from(list(SchedulerPolicy)),
        extra=st.sampled_from([0, 3]),
    )
    def test_random_streams_identical(self, warps, policy, extra):
        config = GpuConfig(scheduler_policy=policy)
        ref, got = _run_both(warps, config, extra_latency=extra)
        _assert_identical(ref, got, f"random/{policy.name}/+{extra}")

    @settings(max_examples=40, deadline=None)
    @given(
        warps=st.lists(random_ops(), min_size=2, max_size=6),
        warps_per_cta=st.sampled_from([1, 2, 3]),
        barriers=st.integers(min_value=1, max_value=2),
    )
    def test_barrier_streams_identical(self, warps, warps_per_cta, barriers):
        barrier = TimingOp(
            category=OpCategory.CTRL,
            dst=None,
            src_regs=(),
            src_banks=(),
            dispatch_cycles=1,
            long_latency=False,
            is_store=False,
            is_barrier=True,
        )
        with_barriers = [list(w) + [barrier] * barriers for w in warps]
        ref, got = _run_both(with_barriers, GpuConfig(), warps_per_cta=warps_per_cta)
        _assert_identical(ref, got, f"barrier/cta{warps_per_cta}")

    @settings(max_examples=25, deadline=None)
    @given(warps=st.lists(random_ops(), min_size=3, max_size=8))
    def test_small_residency_identical(self, warps):
        """Multiple residency generations: more warps than slots."""
        config = GpuConfig(threads_per_sm=64)  # 2 resident warps
        ref, got = _run_both(warps, config)
        _assert_identical(ref, got, "small-residency")


class TestEngineFactory:
    def test_choices_and_default(self):
        assert DEFAULT_SM_ENGINE == "event"
        assert set(SM_ENGINE_CHOICES) == {"event", "cycle"}

    def test_factory_selects_engine(self):
        ops = TimingOpTable.from_ops([[TimingOp(
            category=OpCategory.ALU, dst=0, src_regs=(), src_banks=(),
            dispatch_cycles=2, long_latency=False, is_store=False,
        )]])
        assert isinstance(
            create_sm_simulator("event", ops, GpuConfig()), EventSmSimulator
        )
        assert isinstance(
            create_sm_simulator("cycle", ops, GpuConfig()), SmSimulator
        )

    def test_factory_rejects_unknown_engine(self):
        with pytest.raises(TimingError):
            create_sm_simulator("warp-speed", EMPTY, GpuConfig())

    def test_event_engine_validates_like_reference(self):
        with pytest.raises(TimingError):
            EventSmSimulator(EMPTY, GpuConfig(), extra_latency=-1)
        with pytest.raises(TimingError):
            EventSmSimulator(EMPTY, GpuConfig(), warps_per_cta=0)

    def test_empty_simulation(self):
        result = EventSmSimulator(EMPTY, GpuConfig()).run()
        assert result.cycles == 0
        assert result.instructions == 0
