"""Fuzz the builder + executor with random structured programs.

Hypothesis generates arbitrary nestings of straight-line code,
conditionals and bounded loops; every generated kernel must lint clean,
agree with networkx on post-dominators, and execute to completion with
a consistent trace.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import KernelBuilder, immediate_postdominators
from repro.isa.kernel import EXIT_NODE
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.reference.trace import to_trace


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
    from repro.analysis.static_ import (
        Severity,
        StaticScalarClass,
        analyze_uniformity,
        lint_kernel,
    )

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
