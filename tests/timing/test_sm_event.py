"""Differential tests: event-driven SM engine vs the cycle-level reference.

The event engine's contract is *bit-identical* ``TimingResult`` output —
cycles, instruction counts, memory counters, per-scheduler issue counts,
conflict and stall counters — for any op stream the cycle model accepts.
These tests pin that on every paper workload × architecture, on both
scheduler policies, on barrier-coordinated CTAs, on randomized op
streams, with compile blocks that cut CTAs and residency generations at
different points, and on seeded streams that keep the operand-collector
pool full.  The engine compiles rows only as CTAs activate, once per
distinct warp sequence of a block, and drops them at retirement; a
bounded-memory test pins that.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import GpuConfig, SchedulerPolicy
from repro.errors import TimingError
from repro.experiments.runner import matrix_architectures, paper_architectures
from repro.isa.opcodes import OpCategory
from repro.simt.executor import run_kernel
from repro.timing import sm_event
from repro.timing.ops import SCALAR_RF_BANK
from repro.timing.sm_event import EventSmSimulator
from repro.workloads.registry import all_workloads, build_workload

from tests.reference.classify import classify_trace
from tests.reference.interpret import process_classified
from tests.reference.sm import SmSimulator
from tests.reference.timing import TimingOp, from_ops, lower_to_timing_ops
from tests.reference.trace import to_trace
from tests.timing.test_sm_properties import random_ops

WORKLOADS = [spec.abbr for spec in all_workloads()]
EMPTY = from_ops([])
#: ``_COMPILE_BLOCK_ROWS`` values the random suites draw: a CTA per
#: block, a few CTAs per block, and the whole table in one block.
BLOCK_ROWS = st.sampled_from([1, 7, 16384])
BARRIER = TimingOp(
    category=OpCategory.CTRL,
    dst=None,
    src_regs=(),
    src_banks=(),
    dispatch_cycles=1,
    long_latency=False,
    is_store=False,
    is_barrier=True,
)


def _assert_identical(ref, got, context: str) -> None:
    if ref == got:
        return
    diffs = []
    for field in dataclasses.fields(ref):
        r, g = getattr(ref, field.name), getattr(got, field.name)
        if r != g:
            diffs.append(f"{field.name}: cycle={r} event={g}")
    raise AssertionError(f"{context}: " + "; ".join(diffs))


def _run_both(
    warp_ops, config, extra_latency=0, warps_per_cta=None, block_rows=None
):
    """Reference and event results; ``block_rows`` overrides the event
    engine's compile block floor."""
    ref = SmSimulator(
        warp_ops, config, extra_latency=extra_latency, warps_per_cta=warps_per_cta
    ).run(max_cycles=2_000_000)
    simulator = EventSmSimulator(
        from_ops(warp_ops),
        config,
        extra_latency=extra_latency,
        warps_per_cta=warps_per_cta,
    )
    with mock.patch.object(
        sm_event, "_COMPILE_BLOCK_ROWS", block_rows or sm_event._COMPILE_BLOCK_ROWS
    ):
        got = simulator.run(max_cycles=2_000_000)
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
        classified = classify_trace(to_trace(trace), built.kernel.num_registers)
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
        block_rows=BLOCK_ROWS,
    )
    def test_random_streams_identical(self, warps, policy, extra, block_rows):
        config = GpuConfig(scheduler_policy=policy)
        ref, got = _run_both(
            warps, config, extra_latency=extra, block_rows=block_rows
        )
        _assert_identical(ref, got, f"random/{policy.name}/+{extra}/b{block_rows}")

    @settings(max_examples=40, deadline=None)
    @given(
        warps=st.lists(random_ops(), min_size=2, max_size=6),
        warps_per_cta=st.sampled_from([1, 2, 3]),
        barriers=st.integers(min_value=1, max_value=2),
        block_rows=BLOCK_ROWS,
    )
    def test_barrier_streams_identical(
        self, warps, warps_per_cta, barriers, block_rows
    ):
        with_barriers = [list(w) + [BARRIER] * barriers for w in warps]
        ref, got = _run_both(
            with_barriers,
            GpuConfig(),
            warps_per_cta=warps_per_cta,
            block_rows=block_rows,
        )
        _assert_identical(ref, got, f"barrier/cta{warps_per_cta}/b{block_rows}")

    @settings(max_examples=25, deadline=None)
    @given(
        warps=st.lists(random_ops(), min_size=3, max_size=8),
        policy=st.sampled_from(list(SchedulerPolicy)),
        block_rows=BLOCK_ROWS,
    )
    def test_small_residency_identical(self, warps, policy, block_rows):
        """Multiple residency generations: more warps than slots, so
        slots are retired and refilled under either policy."""
        # 2 resident warps.
        config = GpuConfig(threads_per_sm=64, scheduler_policy=policy)
        ref, got = _run_both(warps, config, block_rows=block_rows)
        _assert_identical(ref, got, f"small-residency/{policy.name}/b{block_rows}")


def _op(category, srcs=(), dispatch=2, long_latency=False):
    """A timing op writing r0 whose sources read the scalar-RF bank."""
    return TimingOp(
        category=category,
        dst=0,
        src_regs=srcs,
        src_banks=(SCALAR_RF_BANK,) * len(srcs),
        dispatch_cycles=dispatch,
        long_latency=long_latency,
        is_store=False,
    )


class TestRarePaths:
    """Streams the random generator found for paths its suites reach
    only rarely, kept so every run covers them."""

    def test_gto_forgets_a_retired_slot(self):
        """A warp activated into the slot GTO issued from last inherits
        no greedy preference: the oldest ready slot wins (4 resident
        warps, 2 per scheduler)."""
        alu = _op(OpCategory.ALU)
        warps = [
            [_op(OpCategory.SFU, (0, 0), dispatch=8)] + [alu] * 7,
            [_op(OpCategory.ALU, (0,))] + [alu] * 4,
            [],
            [],
            [],
            [alu],
            [alu],
            [alu],
        ]
        config = GpuConfig(threads_per_sm=128, scheduler_policy=SchedulerPolicy.GTO)
        ref, got = _run_both(warps, config)
        _assert_identical(ref, got, "gto-retired-slot")

    def test_barrier_wake_up_updates_the_stall_cause(self):
        """A warp woken from a barrier with its next op still blocked
        turns its scheduler's idle cycles from barrier into scoreboard
        stalls."""
        alu = _op(OpCategory.ALU)
        warps = [
            [_op(OpCategory.ALU, long_latency=True), BARRIER, alu],
            [alu, alu, BARRIER],
        ]
        ref, got = _run_both(warps, GpuConfig(), warps_per_cta=2)
        _assert_identical(ref, got, "barrier-wake-up")

    # In both streams below, scheduler 0 owns slots 0 and 2: warp 0
    # issues a branch at cycle 0, and warp 2 issues at cycle 1 an op
    # after which it cannot stall as scoreboard.  Scheduler 0's idle
    # cycles while the branch is in flight are branch shadow, so an
    # engine that took every issue's warp as runnable-but-blocked
    # (scoreboard) would differ.

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_last_op_leaves_the_branch_shadow(self, policy):
        """Warp 2's one op is its last: the scan skips it."""
        alu = _op(OpCategory.ALU)
        warps = [[_op(OpCategory.CTRL), alu], [alu], [alu]]
        ref, got = _run_both(warps, GpuConfig(scheduler_policy=policy))
        _assert_identical(ref, got, f"last-op/{policy.name}")
        assert got.stalls_per_scheduler[0].branch_shadow > 0
        assert got.stalls_per_scheduler[0].scoreboard == 0

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_barrier_leaves_the_branch_shadow(self, policy):
        """Warp 2 arrives at a barrier warp 1 reaches only later: a
        barrier wait ranks below the branch shadow."""
        alu = _op(OpCategory.ALU)
        warps = [
            [_op(OpCategory.CTRL), BARRIER],
            [_op(OpCategory.ALU, long_latency=True), alu, BARRIER],
            [BARRIER, alu],
        ]
        ref, got = _run_both(
            warps, GpuConfig(scheduler_policy=policy), warps_per_cta=3
        )
        _assert_identical(ref, got, f"barrier/{policy.name}")
        assert got.stalls_per_scheduler[0].branch_shadow > 0
        assert got.stalls_per_scheduler[0].scoreboard == 0


def many_cta_warps(
    num_warps: int, length: int, seed: int, distinct: bool = False
) -> list[list[TimingOp]]:
    """``num_warps`` warps running one random ``length``-op program, a
    barrier every 16th op.  Like a kernel's warps, they repeat the same
    register patterns, and their memory ops touch few segments.  With
    ``distinct`` warp *w*'s first op writes register ``96 + w``
    instead, so no two warps run the same sequence (and each adds only
    two hazard masks)."""
    rng = random.Random(seed)
    program = []
    for index in range(length):
        if index % 16 == 15:
            program.append(BARRIER)
            continue
        category = rng.choice(
            (OpCategory.ALU, OpCategory.ALU, OpCategory.SFU, OpCategory.MEM)
        )
        srcs = tuple(rng.randrange(96) for _ in range(rng.randrange(3)))
        program.append(
            TimingOp(
                category=category,
                dst=rng.randrange(96),
                src_regs=srcs,
                src_banks=tuple(r % 16 for r in srcs),
                dispatch_cycles=8 if category is OpCategory.SFU else 2,
                long_latency=False,
                is_store=False,
                mem_segments=(
                    (rng.randrange(12),) if category is OpCategory.MEM else ()
                ),
            )
        )
    if not distinct:
        return [list(program) for _ in range(num_warps)]
    return [
        [dataclasses.replace(program[0], dst=96 + warp)] + program[1:]
        for warp in range(num_warps)
    ]


class TestBoundedCompile:
    """Compiled rows live from CTA activation to warp retirement."""

    @staticmethod
    def compiled_run(table, block_rows, traced=False):
        """``table``'s warps in 4-warp CTAs on a 4-warp SM: the result,
        the traced peak (``None`` unless ``traced``) and the
        ``_compile_rows`` calls' row ranges."""
        simulator = EventSmSimulator(
            table, GpuConfig(threads_per_sm=128), warps_per_cta=4
        )
        compile_rows = EventSmSimulator._compile_rows
        compiled = []

        def spy(self, lo, hi, interned):
            compiled.append((lo, hi))
            return compile_rows(self, lo, hi, interned)

        with mock.patch.object(
            sm_event, "_COMPILE_BLOCK_ROWS", block_rows
        ), mock.patch.object(EventSmSimulator, "_compile_rows", spy):
            if not traced:
                return simulator.run(), None, compiled
            tracemalloc.start()
            try:
                result = simulator.run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return result, peak, compiled

    def test_peak_is_a_fraction_of_an_eager_compile(self):
        """128 warps that share no sequence, in 4-warp CTAs on a 4-warp
        SM, so one CTA is resident at a time: with a small block the
        run holds about a CTA's rows, not the table's."""
        table = from_ops(many_cta_warps(128, 32, seed=3, distinct=True))
        # One block holding every row: the whole table compiled at
        # cycle 0, as an eager compile would.
        eager, eager_peak, eager_rows = self.compiled_run(
            table, table.num_ops, traced=True
        )
        bounded, bounded_peak, _ = self.compiled_run(table, 64, traced=True)
        _assert_identical(eager, bounded, "bounded-compile")
        assert eager_rows == [(0, table.num_ops)]  # nothing shared
        assert bounded_peak < eager_peak / 4, (bounded_peak, eager_peak)

    def test_peak_is_bounded_when_no_two_warps_share_a_mask(self):
        """128 warps in 4-warp CTAs on a 4-warp SM, every register of
        warp *w* shifted by *w*, so no hazard mask repeats across warps:
        masks are interned per compile block, so the run holds about a
        CTA's masks, not the table's."""
        warps = [
            [
                dataclasses.replace(
                    op,
                    dst=None if op.dst is None else op.dst + warp,
                    src_regs=tuple(r + warp for r in op.src_regs),
                    src_banks=tuple((r + warp) % 16 for r in op.src_regs),
                )
                for op in program
            ]
            for warp, program in enumerate(many_cta_warps(128, 32, seed=3))
        ]
        table = from_ops(warps)
        eager, eager_peak, _ = self.compiled_run(table, table.num_ops, traced=True)
        bounded, bounded_peak, _ = self.compiled_run(table, 64, traced=True)
        _assert_identical(eager, bounded, "shifted-registers")
        assert bounded_peak < eager_peak / 8, (bounded_peak, eager_peak)

    def test_identical_warps_compile_one_sequence(self):
        """128 warps running one program compile it once per block:
        once for the whole table, or once for each CTA's block."""
        warps = many_cta_warps(128, 32, seed=3)
        table = from_ops(warps)
        eager, _, eager_rows = self.compiled_run(table, table.num_ops)
        bounded, _, bounded_rows = self.compiled_run(table, 64)
        assert eager_rows == [(0, 32)]
        assert bounded_rows == [(lo, lo + 32) for lo in range(0, table.num_ops, 128)]
        _assert_identical(eager, bounded, "one-sequence")
        ref = SmSimulator(warps, GpuConfig(threads_per_sm=128), warps_per_cta=4).run()
        _assert_identical(ref, eager, "one-sequence/reference")


#: Per stream kind of :func:`saturated_warps`, the ``GpuConfig`` fields
#: its runs set.
SATURATED_CONFIGS = {
    "alu": {"alu_pipelines": 1},
    "banks": {},
    # ALU 2 + 26, SFU 4 + 24 and shared memory 4 + 24 (the memory
    # model's shared latency) cycles of dispatch plus latency.
    "deltas": {"alu_latency": 26, "sfu_latency": 24},
}


def saturated_warps(
    kind: str, seed: int, num_warps: int = 48, length: int = 32
) -> list[list[TimingOp]]:
    """``num_warps`` warps (48 fill an SM) that keep the collector pool
    full, taking three random ``length``-op programs in turn.

    Each warp draws its own segments for its global memory ops, so
    warps with equal sequences differ in their segments.  ``kind``
    sets the mix, for a ``GpuConfig`` with ``SATURATED_CONFIGS[kind]``:

    * ``"alu"`` — ALU ops and some global loads, for one ALU pipeline;
    * ``"banks"`` — most ops pile two or three reads on bank 0 or
      the scalar-RF bank, the rest read one odd register once, so a
      younger collector often completes its reads before an older one;
    * ``"deltas"`` — ALU, SFU and shared-memory ops whose dispatch plus
      latency are equal, so several port groups write into one
      write-back bucket in the same cycle.
    """
    rng = random.Random(seed)

    def op() -> TimingOp:
        if kind == "alu":
            category = rng.choice([OpCategory.ALU] * 5 + [OpCategory.MEM])
        else:
            category = rng.choice((OpCategory.ALU, OpCategory.SFU, OpCategory.MEM))
        if kind == "banks" and rng.random() < 0.7:
            bank = rng.choice((0, SCALAR_RF_BANK))
            srcs = tuple(16 * rng.randrange(4) for _ in range(rng.randrange(2, 4)))
            banks = (bank,) * len(srcs)
        elif kind == "banks":
            srcs = (rng.randrange(64) | 1,)
            banks = (srcs[0] % 16,)
        else:
            srcs = tuple(rng.randrange(64) for _ in range(rng.randrange(3)))
            banks = tuple(r % 16 for r in srcs)
        shared = category is OpCategory.MEM and kind == "deltas" and rng.random() < 0.7
        return TimingOp(
            category=category,
            # Piled reads need no write: registers 64 up are read by none.
            dst=rng.randrange(64, 128) if kind == "banks" else rng.randrange(64),
            src_regs=srcs,
            src_banks=banks,
            dispatch_cycles=2 if category is OpCategory.ALU or kind != "deltas" else 4,
            long_latency=False,
            is_store=False,
            # Placeholders: each warp draws its own segments below.
            mem_segments=(
                (0,) * rng.randint(1, 3)
                if category is OpCategory.MEM and not shared
                else ()
            ),
            is_shared_mem=shared,
        )

    bodies = [[op() for _ in range(length)] for _ in range(3)]
    return [
        [
            dataclasses.replace(
                op,
                mem_segments=tuple(sorted(rng.sample(range(48), len(op.mem_segments)))),
            )
            if op.mem_segments
            else op
            for op in bodies[warp % 3]
        ]
        for warp in range(num_warps)
    ]


class TestSaturatedPoolDifferential:
    """Seeded streams on 48 resident warps that keep the collector pool
    full, so bank-complete collectors wait for ports most cycles: the
    waiting list takes out-of-order completions, its dispatch pass
    stops early, and port groups share write-back buckets."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("collectors", [4, 16])
    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    @pytest.mark.parametrize("kind", sorted(SATURATED_CONFIGS))
    def test_saturated_streams_identical(self, kind, policy, collectors, seed):
        config = GpuConfig(
            scheduler_policy=policy,
            operand_collectors_per_sm=collectors,
            **SATURATED_CONFIGS[kind],
        )
        with mock.patch.object(sm_event, "insort", wraps=sm_event.insort) as insort:
            ref, got = _run_both(saturated_warps(kind, seed), config, extra_latency=3)
        _assert_identical(
            ref, got, f"saturated/{kind}/{policy.name}/{collectors}/{seed}"
        )
        full = sum(
            stalls.collectors_full + stalls.bank_conflict
            for stalls in got.stalls_per_scheduler
        )
        # A fifth of all scheduler-cycles: most others issue, and the
        # last loads drain with the pool empty.
        assert full >= 0.2 * config.schedulers_per_sm * got.cycles, (full, got.cycles)
        if kind == "banks":
            assert insort.call_count, "no collector completed before an older one"


class TestEngineFactory:
    def test_event_engine_validates_like_reference(self):
        with pytest.raises(TimingError):
            EventSmSimulator(EMPTY, GpuConfig(), extra_latency=-1)
        with pytest.raises(TimingError):
            EventSmSimulator(EMPTY, GpuConfig(), warps_per_cta=0)

    def test_empty_simulation(self):
        result = EventSmSimulator(EMPTY, GpuConfig()).run()
        assert result.cycles == 0
        assert result.instructions == 0
