"""Per-benchmark signature tests: every proxy runs and matches the
qualitative behaviour the paper reports for its original."""

import pytest

from repro.isa.opcodes import OpCategory
from repro.isa.validation import validate_kernel
from repro.scalar.eligibility import ScalarClass
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.tracker import trace_statistics
from repro.simt.executor import run_kernel
from repro.workloads.registry import SCALES, all_workloads, build_workload

SCALE = SCALES["tiny"]


@pytest.fixture(scope="module")
def all_stats():
    """Execute every workload once at tiny scale (shared by tests)."""
    results = {}
    for spec in all_workloads():
        built = spec.builder(SCALE)
        trace = run_kernel(built.kernel, built.launch, built.memory)
        ccols = classify_columnar_batch(
            trace.to_columnar(), built.kernel.num_registers
        )
        results[spec.abbr] = (built, trace, trace_statistics(ccols))
    return results


@pytest.mark.parametrize("abbr", [s.abbr for s in all_workloads()])
def test_kernel_is_structurally_valid(abbr):
    built = build_workload(abbr, scale="tiny")
    report = validate_kernel(built.kernel)
    assert report.num_instructions > 5


@pytest.mark.parametrize("abbr", [s.abbr for s in all_workloads()])
def test_workload_executes_and_produces_instructions(abbr, all_stats):
    _, trace, stats = all_stats[abbr]
    assert stats.total_instructions >= 100
    assert trace.warp_size == 32


def test_divergent_benchmarks_diverge(all_stats):
    for abbr in ("HW", "LBM", "SAD", "BT", "HS"):
        _, _, stats = all_stats[abbr]
        assert stats.divergent_instructions / stats.total_instructions > 0.15, abbr


def test_nondivergent_benchmarks_stay_convergent(all_stats):
    """§5.1 names mri-q, sgemm and spmv as non-divergent; spmv's ragged
    rows still diverge at loop exits, so check MQ and MM."""
    for abbr in ("MQ", "MM"):
        _, _, stats = all_stats[abbr]
        assert stats.divergent_instructions / stats.total_instructions < 0.05, abbr


def test_lbm_is_divergent_scalar_heavy(all_stats):
    _, _, stats = all_stats["LBM"]
    assert stats.fraction(ScalarClass.DIVERGENT_SCALAR) > 0.15


def test_bp_has_scalar_sfu_and_half_warp_population(all_stats):
    _, _, stats = all_stats["BP"]
    assert stats.fraction(ScalarClass.SFU_SCALAR) > 0.08
    assert stats.fraction(ScalarClass.HALF_SCALAR) > 0.05


def test_bp_sfu_instructions_mostly_scalar(all_stats):
    _, trace, stats = all_stats["BP"]
    sfu_total = trace.category_histogram()[OpCategory.SFU]
    sfu_scalar = stats.class_counts[ScalarClass.SFU_SCALAR]
    assert sfu_scalar / sfu_total > 0.6


def test_mm_and_mq_have_broadcast_loads(all_stats):
    for abbr in ("MM", "MQ"):
        _, _, stats = all_stats[abbr]
        assert stats.fraction(ScalarClass.MEM_SCALAR) > 0.05, abbr


def test_mv_and_mg_have_little_full_scalar(all_stats):
    """§5.3: MG and MV rely on partial-byte compression, not scalar."""
    for abbr in ("MV", "MG"):
        _, _, stats = all_stats[abbr]
        assert stats.eligible_fraction < 0.30, abbr


def test_lc_uses_long_latency_division(all_stats):
    built, trace, _ = all_stats["LC"]
    from repro.isa.opcodes import LONG_LATENCY_ALU

    has_div = any(e.opcode in LONG_LATENCY_ALU for e in trace.all_events())
    assert has_div
    assert built.launch.total_warps(32) <= 6  # low occupancy


def test_memory_intensive_benchmarks_issue_more_memory_ops(all_stats):
    _, lbm_trace, _ = all_stats["LBM"]
    _, bp_trace, _ = all_stats["BP"]
    lbm_mem = lbm_trace.category_histogram()[OpCategory.MEM] / lbm_trace.total_instructions
    bp_mem = bp_trace.category_histogram()[OpCategory.MEM] / bp_trace.total_instructions
    assert lbm_mem > 2 * bp_mem


def test_workloads_are_deterministic():
    built_a = build_workload("SAD", scale="tiny")
    built_b = build_workload("SAD", scale="tiny")
    trace_a = run_kernel(built_a.kernel, built_a.launch, built_a.memory)
    trace_b = run_kernel(built_b.kernel, built_b.launch, built_b.memory)
    assert trace_a.total_instructions == trace_b.total_instructions
    masks_a = [e.active_mask for e in trace_a.all_events()]
    masks_b = [e.active_mask for e in trace_b.all_events()]
    assert masks_a == masks_b
