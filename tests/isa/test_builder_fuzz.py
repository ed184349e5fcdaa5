"""Fuzz the builder + executor with random structured programs.

Hypothesis generates arbitrary nestings of straight-line code,
conditionals and bounded loops; every generated kernel must lint clean,
agree with networkx on post-dominators, execute to completion with a
consistent trace, and keep every static uniformity and width claim on
that trace.  Multi-warp programs add branches that split warps
(on ``tid >> 5`` and ``%ctaid``), loops whose per-thread trip counts
come from memory, top-level ``bar.sync`` exchanges through shared
memory and global words that threads of every warp load and store;
they run on several CTAs and must match the per-warp reference
executor.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_ import (
    Severity,
    StaticScalarClass,
    analyze_uniformity,
    analyze_widths,
    lint_kernel,
)
from repro.experiments.staticdyn import (
    annotate_sites,
    score_benchmark,
    score_widths_benchmark,
)
from repro.isa import KernelBuilder, immediate_postdominators
from repro.isa.kernel import EXIT_NODE
from repro.scalar.batch import classify_columnar_batch
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.reference import executor as reference
from tests.reference.trace import to_trace
from tests.simt.test_columnar import assert_columnar_identical
from tests.simt.test_lockstep import assert_images_equal


@st.composite
def structured_programs(draw):
    """A program description: a tree of statements."""

    def statements(depth):
        options = ["op", "op"]
        if depth < 3:
            options += ["if", "ifelse", "loop"]
        count = draw(st.integers(min_value=1, max_value=4))
        body = []
        for _ in range(count):
            kind = draw(st.sampled_from(options))
            if kind in ("if", "ifelse"):
                body.append((kind, statements(depth + 1)))
            elif kind == "loop":
                trips = draw(st.integers(min_value=0, max_value=3))
                body.append((kind, trips, statements(depth + 1)))
            else:
                body.append(("op",))
        return body

    return statements(0)


def build_program(description):
    b = KernelBuilder("fuzz")
    tid = b.tid()
    acc = b.mov(0)

    def emit(statements):
        nonlocal acc
        for statement in statements:
            if statement[0] == "op":
                acc = b.iadd(acc, 1, dst=acc)
            elif statement[0] == "if":
                cond = b.setlt(b.and_(tid, 3), 2)
                with b.if_(cond):
                    emit(statement[1])
            elif statement[0] == "ifelse":
                cond = b.seteq(b.and_(tid, 1), 0)
                with b.if_(cond) as branch:
                    emit(statement[1])
                    with branch.else_():
                        acc = b.iadd(acc, 100, dst=acc)
            elif statement[0] == "loop":
                _, trips, body = statement
                with b.for_range(0, trips):
                    emit(body)

    emit(description)
    b.st_global(b.imad(tid, 4, 0x1000), acc)
    return b.finish()


def networkx_ipdom(kernel):
    graph = nx.DiGraph()
    graph.add_node(EXIT_NODE)
    for block in kernel.blocks:
        for successor in block.successors():
            graph.add_edge(successor, block.block_id)
    idom = nx.immediate_dominators(graph, EXIT_NODE)
    return {block.block_id: idom[block.block_id] for block in kernel.blocks}


@settings(max_examples=60, deadline=None)
@given(description=structured_programs())
def test_random_programs_lint_clean(description):
    # Builder-generated programs define every register before use and
    # keep the CFG structured, so the full lint pipeline must find no
    # errors and no structural warnings — and the uniformity analysis
    # must classify every static instruction exactly once.
    kernel = build_program(description)
    report = lint_kernel(kernel, max_registers=256)
    # GS-W104 (register provably narrow) is an *opportunity* finding,
    # not a defect: random programs trip it whenever a value happens to
    # stay provably small, so it is excluded from the cleanliness bar.
    findings = [
        d for d in report.at_least(Severity.WARNING) if d.rule != "GS-W104"
    ]
    assert findings == []
    result = analyze_uniformity(kernel)
    assert len(result.classes) == kernel.static_instruction_count()
    assert all(isinstance(v, StaticScalarClass) for v in result.classes.values())


@settings(max_examples=60, deadline=None)
@given(description=structured_programs())
def test_static_verdicts_hold_on_the_trace(description):
    # Every static promise must hold on the kernel's own trace: no
    # PROVABLY_SCALAR site runs under a narrowed mask or is found
    # non-scalar, and no write is narrower than its width claim.  The
    # 48-thread launch adds a 16-lane tail warp.
    kernel = build_program(description)
    uniformity = analyze_uniformity(kernel)
    widths = analyze_widths(kernel)
    for launch in (LaunchConfig(1, 32), LaunchConfig(1, 48)):
        trace = run_kernel(kernel, launch, MemoryImage())
        columns = classify_columnar_batch(trace, kernel.num_registers)
        sites = annotate_sites(kernel, columns)
        row = score_benchmark("fuzz", kernel, columns, sites, uniformity)
        assert row.soundness_violations == 0
        assert row.precision == 1.0
        width_row = score_widths_benchmark("fuzz", kernel, columns, sites, widths)
        assert width_row.claimed_events > 0
        assert width_row.over_claims == 0


@settings(max_examples=60, deadline=None)
@given(description=structured_programs())
def test_postdominators_match_networkx(description):
    kernel = build_program(description)
    assert immediate_postdominators(kernel) == networkx_ipdom(kernel)


@settings(max_examples=40, deadline=None)
@given(description=structured_programs())
def test_random_programs_execute_and_reconverge(description):
    kernel = build_program(description)
    memory = MemoryImage()
    trace = to_trace(
        run_kernel(kernel, LaunchConfig(1, 32), memory, max_warp_instructions=100_000)
    )
    assert trace.total_instructions > 0
    # The final store happens after all reconvergence: full mask.
    final_store = trace.warps[0].events[-1]
    assert final_store.active_mask == 0xFFFFFFFF
    # Every event's mask is a submask of full.
    for event in trace.warps[0]:
        assert event.active_mask <= 0xFFFFFFFF


@settings(max_examples=30, deadline=None)
@given(description=structured_programs())
def test_execution_is_deterministic(description):
    kernel = build_program(description)

    def run_once():
        memory = MemoryImage()
        run_kernel(kernel, LaunchConfig(1, 32), memory)
        return memory.read_array(0x1000, 32).tolist()

    assert run_once() == run_once()


_TRIPS = 0x2_0000
_OUT = 0x3_0000
_SHARED_WORDS = 0x4_0000


@st.composite
def multi_warp_programs(draw):
    """A program tree whose conditions and trip counts differ by warp."""

    def statements(depth):
        options = ["op", "warp_if", "cta_if", "lane_if", "data_loop"]
        if depth == 0:
            options += ["barrier", "exchange"]
        if depth >= 3:
            options = ["op"]
        count = draw(st.integers(min_value=1, max_value=4))
        body = []
        for _ in range(count):
            kind = draw(st.sampled_from(options))
            if kind in ("op", "exchange", "barrier"):
                body.append((kind,))
            else:
                body.append((kind, statements(depth + 1)))
        return body

    return statements(0)


def build_multi_warp_program(description, cta_dim):
    b = KernelBuilder("fuzz_warps")
    tid = b.tid()
    thread = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
    acc = b.mov(0)

    def emit(statements):
        nonlocal acc
        for statement in statements:
            kind = statement[0]
            if kind == "op":
                acc = b.iadd(acc, b.iadd(tid, 1), dst=acc)
            elif kind == "exchange":
                # Threads of different warps and CTAs share these words:
                # a hazard the executor must replay in reference order.
                slot = b.imad(b.and_(b.shr(tid, 3), 3), 4, _SHARED_WORDS)
                acc = b.iadd(acc, b.ld_global(slot), dst=acc)
                b.st_global(b.imad(b.and_(tid, 3), 4, _SHARED_WORDS), acc)
            elif kind == "barrier":
                b.st_shared(b.imul(thread, 4), acc)
                b.barrier()
                partner = b.irem(b.iadd(thread, 32), cta_dim)
                acc = b.iadd(acc, b.ld_shared(b.imul(partner, 4)), dst=acc)
                b.barrier()
            elif kind == "data_loop":
                trips = b.ld_global(b.imad(tid, 4, _TRIPS))
                i = b.mov(0)
                with b.while_(lambda: b.setlt(i, trips)):
                    emit(statement[1])
                    i = b.iadd(i, 1, dst=i)
            else:
                if kind == "warp_if":
                    cond = b.and_(b.shr(tid, 5), 1)
                elif kind == "cta_if":
                    cond = b.seteq(b.ctaid(), 1)
                else:
                    cond = b.setlt(b.and_(tid, 7), 3)
                with b.if_(cond) as branch:
                    emit(statement[1])
                    with branch.else_():
                        acc = b.xor(acc, 0x55, dst=acc)

    emit(description)
    b.st_global(b.imad(tid, 4, _OUT), acc)
    return b.finish()


@settings(max_examples=40, deadline=None)
@given(
    description=multi_warp_programs(),
    grid_dim=st.integers(min_value=2, max_value=3),
    cta_dim=st.sampled_from([40, 64, 96, 128]),
    warp_size=st.sampled_from([32, 64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_many_warps_match_reference(description, grid_dim, cta_dim, warp_size, seed):
    kernel = build_multi_warp_program(description, cta_dim)
    launch = LaunchConfig(grid_dim, cta_dim)
    trips = np.random.default_rng(seed).integers(0, 4, launch.total_threads)

    def memory():
        image = MemoryImage()
        image.bind_array(_TRIPS, trips.astype(np.uint32))
        return image

    actual, expected = memory(), memory()
    trace = run_kernel(
        kernel, launch, actual, warp_size=warp_size, max_warp_instructions=100_000
    )
    oracle = reference.run_kernel(
        kernel, launch, expected, warp_size=warp_size, max_warp_instructions=100_000
    )
    assert_columnar_identical(oracle, trace)
    assert_images_equal(expected, actual)
