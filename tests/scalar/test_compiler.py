"""Tests for the compiler-assisted analyses (§3.3 elision, §6 static
scalarization by the uniformity analysis)."""

from repro.analysis.static_ import StaticScalarClass, analyze_uniformity
from repro.config import ArchitectureConfig
from repro.experiments.staticdyn import annotate_sites, score_benchmark
from repro.isa import KernelBuilder
from repro.scalar.compiler import MoveElisionAnalysis
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.oracles import dynamic_static_scalar_fraction_events
from tests.reference.classify import classify_trace
from tests.reference.interpret import process_classified, processed_statistics
from tests.reference.trace import to_trace

GSCALAR = ArchitectureConfig.gscalar()


def run(kernel, cta=32):
    trace = to_trace(run_kernel(kernel, LaunchConfig(1, cta), MemoryImage()))
    return trace, classify_trace(trace, kernel.num_registers)


def region_local_temp_kernel():
    """t is compressed, divergently overwritten, and dead at the merge."""
    b = KernelBuilder("elidable")
    tid = b.tid()
    c = b.mov(7)
    t = b.mov(3)
    cond = b.seteq(b.and_(tid, 1), 0)
    with b.if_(cond):
        t = b.iadd(c, 1, dst=t)
        b.iadd(t, 2)
    b.st_global(b.imad(tid, 4, 0x100), c)
    return b.finish()


def live_after_merge_kernel():
    """t's stale lanes are read after reconvergence: move required."""
    b = KernelBuilder("not_elidable")
    tid = b.tid()
    t = b.mov(3)
    cond = b.seteq(b.and_(tid, 1), 0)
    with b.if_(cond):
        t = b.mov(9, dst=t)
    b.st_global(b.imad(tid, 4, 0x100), t)  # reads all lanes of t
    return b.finish()


def sibling_read_kernel():
    """t read in the else arm after the taken arm corrupted it."""
    b = KernelBuilder("sibling")
    tid = b.tid()
    t = b.mov(3)
    sink = b.mov(0)
    cond = b.seteq(b.and_(tid, 1), 0)
    with b.if_(cond) as branch:
        t = b.mov(9, dst=t)
        with branch.else_():
            sink = b.iadd(t, 1, dst=sink)  # reads old t
    b.st_global(b.imad(tid, 4, 0x100), sink)
    return b.finish()


class TestMoveElision:
    def test_region_local_temp_elided(self):
        kernel = region_local_temp_kernel()
        trace, classified = run(kernel)
        without = processed_statistics(process_classified(classified, GSCALAR, 32))
        elided = processed_statistics(
            process_classified(
                classified, GSCALAR, 32, move_elision=MoveElisionAnalysis(kernel)
            )
        )
        assert without.extra_instructions == 1
        assert elided.extra_instructions == 0

    def test_live_after_merge_keeps_move(self):
        kernel = live_after_merge_kernel()
        trace, classified = run(kernel)
        elided = processed_statistics(
            process_classified(
                classified, GSCALAR, 32, move_elision=MoveElisionAnalysis(kernel)
            )
        )
        assert elided.extra_instructions == 1

    def test_sibling_read_keeps_move(self):
        kernel = sibling_read_kernel()
        trace, classified = run(kernel)
        elided = processed_statistics(
            process_classified(
                classified, GSCALAR, 32, move_elision=MoveElisionAnalysis(kernel)
            )
        )
        # Two moves survive: t (read by the sibling arm) and sink (live
        # at the reconvergence point).
        assert elided.extra_instructions == 2

    def test_elision_never_increases_moves(self):
        from repro.workloads.registry import build_workload

        for abbr in ("LBM", "HS", "SAD"):
            built = build_workload(abbr, scale="tiny")
            trace = run_kernel(built.kernel, built.launch, built.memory)
            classified = classify_trace(to_trace(trace), built.kernel.num_registers)
            without = processed_statistics(
                process_classified(classified, GSCALAR, 32)
            )
            elided = processed_statistics(
                process_classified(
                    classified,
                    GSCALAR,
                    32,
                    move_elision=MoveElisionAnalysis(built.kernel),
                )
            )
            assert elided.extra_instructions <= without.extra_instructions


def static_scalar_count(result, block_id):
    """``PROVABLY_SCALAR`` sites in one block."""
    return sum(
        verdict is StaticScalarClass.PROVABLY_SCALAR
        for (block, _), verdict in result.classes.items()
        if block == block_id
    )


class TestStaticScalarization:
    """§6's compile-time scalarizer is the uniformity analysis: its
    ``PROVABLY_SCALAR`` sites, weighted by how often they execute."""

    def test_constants_are_static_scalar(self):
        b = KernelBuilder("consts")
        c = b.mov(5)
        d = b.iadd(c, 1)
        b.imul(d, d)
        result = analyze_uniformity(b.finish())
        assert static_scalar_count(result, 0) == 3

    def test_tid_taints(self):
        b = KernelBuilder("tid")
        tid = b.tid()
        b.iadd(tid, 1)
        result = analyze_uniformity(b.finish())
        assert static_scalar_count(result, 0) == 0

    def test_uniform_address_load_is_scalar(self):
        b = KernelBuilder("bload")
        addr = b.mov(0x100)
        value = b.ld_global(addr)
        b.iadd(value, 1)
        result = analyze_uniformity(b.finish())
        assert static_scalar_count(result, 0) == 3  # mov, ld, iadd

    def test_divergent_region_blocks_scalarization(self):
        b = KernelBuilder("divregion")
        tid = b.tid()
        c = b.mov(5)
        cond = b.setlt(tid, 16)  # varying condition
        with b.if_(cond):
            b.iadd(c, 1)  # dynamically divergent-scalar; statically not
        kernel = b.finish()
        result = analyze_uniformity(kernel)
        taken = kernel.blocks[0].terminator.taken
        assert static_scalar_count(result, taken) == 0
        assert taken in result.control_divergent_blocks

    def test_uniform_branch_does_not_block(self):
        b = KernelBuilder("unibranch")
        c = b.mov(5)
        cond = b.setlt(c, 16)  # scalar condition
        with b.if_(cond):
            b.iadd(c, 1)
        kernel = b.finish()
        result = analyze_uniformity(kernel)
        taken = kernel.blocks[0].terminator.taken
        assert static_scalar_count(result, taken) == 1
        assert taken not in result.control_divergent_blocks

    def test_compiler_captures_fewer_than_gscalar(self):
        """The §6 claim: static scalarization misses a sizeable share of
        what dynamic detection finds (paper: 24% fewer)."""
        from repro.scalar.batch import classify_columnar_batch
        from repro.scalar.tracker import trace_statistics
        from repro.workloads.registry import build_workload

        static_total = 0.0
        dynamic_total = 0.0
        for abbr in ("BP", "HS", "LBM", "MM", "SAD"):
            built = build_workload(abbr, scale="tiny")
            trace = run_kernel(built.kernel, built.launch, built.memory)
            ccols = classify_columnar_batch(trace, built.kernel.num_registers)
            dynamic_total += trace_statistics(ccols).eligible_fraction
            uniformity = analyze_uniformity(built.kernel)
            sites = annotate_sites(built.kernel, ccols)
            fraction = score_benchmark(
                abbr, built.kernel, ccols, sites, uniformity
            ).coverage
            assert fraction == dynamic_static_scalar_fraction_events(
                built.kernel, uniformity, to_trace(trace)
            )
            static_total += fraction
        assert static_total < dynamic_total
        shortfall = 1 - static_total / dynamic_total
        assert shortfall > 0.10  # the compiler misses a real chunk
