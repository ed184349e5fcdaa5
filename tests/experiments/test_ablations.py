"""Ablation studies for the design choices DESIGN.md calls out.

Six studies beyond the paper's headline figures, on the session's
small-scale runner (``pytest tests/experiments/test_ablations.py -s``
prints the numbers EXPERIMENTS.md quotes):

* **Scalar fast dispatch** (§6's "as low as only one cycle"): the paper
  evaluates G-Scalar without shortening dispatch; enabling it shows the
  additional *performance* headroom scalar execution leaves on the
  table, biggest for SFU-heavy BP.
* **Half-register compression off**: quantifies what the second BVR/EBR
  pair buys in RF energy (the 3% -> 7% area trade of §4.3).
* **Scheduler policy**: LRR vs GTO sensitivity of the timing results.
* **Compiler assist** (§3.3/§6): liveness-based decompress-move elision
  and the static-scalarization shortfall.
* **Warp 64** (§4.3): scalar execution keeps paying off on wider warps.
* **Scalar-bank bottleneck** (§4.1): the prior architecture's single
  scalar-RF bank serializes scalar bursts; G-Scalar's per-bank BVRs
  do not.
"""

import dataclasses

from repro.config import ArchitectureConfig, GpuConfig, SchedulerPolicy
from repro.experiments.staticdyn import annotate_sites, score_benchmark
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.tracker import trace_statistics
from repro.timing.gpu import simulate_architecture_columns

_SFU_HEAVY = ("BP", "MQ", "SR1")


def _efficiency(runner, abbr, arch, config=None):
    columns = runner.classified_columns(abbr)
    processed = process_columns(columns, arch)
    timing = simulate_architecture_columns(columns, processed, arch, config)
    return PowerAccountant(
        arch, runner.params, config or runner.config
    ).account_columns(processed, timing)


def test_fast_dispatch(shared_runner):
    """Scalar fast dispatch: IPC upside of 1-cycle scalar issue."""
    paper_arch = ArchitectureConfig.gscalar()
    fast_arch = paper_arch.replace(scalar_fast_dispatch=True)
    results = {}
    for abbr in _SFU_HEAVY:
        paper = _efficiency(shared_runner, abbr, paper_arch)
        fast = _efficiency(shared_runner, abbr, fast_arch)
        results[abbr] = (paper.ipc, fast.ipc)
    print()
    for abbr, (paper_ipc, fast_ipc) in results.items():
        print(
            f"  {abbr}: ipc {paper_ipc:.2f} -> {fast_ipc:.2f} "
            f"({fast_ipc / paper_ipc:.2f}x) with 1-cycle scalar dispatch"
        )
    # BP's scalar SFU chains free the 8-cycle SFU dispatch port: big win.
    bp_paper, bp_fast = results["BP"]
    assert bp_fast > 1.2 * bp_paper
    # No benchmark gets slower.
    assert all(fast >= 0.98 * paper for paper, fast in results.values())


def test_half_register(shared_runner):
    """Half-register compression: RF energy with and without the second
    BVR/EBR pair."""
    with_half = ArchitectureConfig.gscalar()
    without_half = with_half.replace(
        half_register_compression=False, half_warp_scalar=False
    )
    totals = {"with": 0.0, "without": 0.0}
    for abbr in shared_runner.benchmark_names():
        totals["with"] += _efficiency(shared_runner, abbr, with_half).breakdown.rf_pj
        totals["without"] += _efficiency(
            shared_runner, abbr, without_half
        ).breakdown.rf_pj
    ratio = totals["with"] / totals["without"]
    print(f"\n  RF energy with half-register pairs: {ratio:.3f}x of without")
    # The second pair can only reduce data-array activations.
    assert ratio <= 1.0
    assert ratio > 0.75  # it is a refinement, not the main effect


def test_scheduler_policy(shared_runner):
    """LRR vs GTO: cycle-count sensitivity of the baseline timing."""
    arch = ArchitectureConfig.baseline()
    cycles = {}
    for policy in (SchedulerPolicy.LRR, SchedulerPolicy.GTO):
        config = dataclasses.replace(GpuConfig(), scheduler_policy=policy)
        cycles[policy.value] = sum(
            _efficiency(shared_runner, abbr, arch, config).cycles
            for abbr in ("HS", "MM", "SAD")
        )
    print(f"\n  total cycles: {cycles}")
    # Both policies complete the same work within a modest band.
    ratio = cycles["gto"] / cycles["lrr"]
    assert 0.7 < ratio < 1.4


def test_compiler_assist(shared_runner):
    """§3.3 + §6 compiler techniques: move elision and the static-
    scalarization comparison point (the uniformity analysis's
    ``PROVABLY_SCALAR`` sites)."""
    gscalar = ArchitectureConfig.gscalar()
    moves_hw = moves_compiler = total = 0
    static_fraction = dynamic_fraction = 0.0
    names = shared_runner.benchmark_names()
    for abbr in names:
        run = shared_runner.run(abbr)
        columns = shared_runner.classified_columns(abbr)
        stats = trace_statistics(columns)
        total += stats.total_instructions
        moves_hw += stats.decompress_moves
        elision = MoveElisionAnalysis(run.built.kernel)
        processed = process_columns(columns, gscalar, move_elision=elision)
        moves_compiler += int(processed.extra_instructions.sum())
        dynamic_fraction += stats.eligible_fraction
        uniformity = shared_runner.width_analysis(abbr).uniformity
        sites = annotate_sites(run.built.kernel, columns)
        static_fraction += score_benchmark(
            abbr, run.built.kernel, columns, sites, uniformity
        ).coverage
    hw_overhead = moves_hw / total
    compiler_overhead = moves_compiler / total
    shortfall = 1 - static_fraction / dynamic_fraction
    print(
        f"\n  decompress-move overhead: hardware {100 * hw_overhead:.1f}% "
        f"-> compiler-assisted {100 * compiler_overhead:.1f}% "
        "(paper: ~2% -> <2%)"
    )
    print(
        f"  compile-time scalarization captures {100 * shortfall:.0f}% fewer "
        "instructions than G-Scalar (paper: 24%)"
    )
    # Elision only removes moves; never adds.
    assert compiler_overhead <= hw_overhead
    assert compiler_overhead < 0.02  # the paper's "<2%"
    # The compiler misses a sizeable share of dynamic opportunity.
    assert 0.10 < shortfall < 0.60


def test_warp64(shared_runner):
    """§4.3's forward-looking claim: with wider SIMT warps (fewer
    full-warp scalars), chunk-granular scalar execution lets future
    GPUs "continuously benefit from scalar execution"."""
    arch = ArchitectureConfig.gscalar()
    base = ArchitectureConfig.baseline()
    config64 = dataclasses.replace(GpuConfig(), warp_size=64, threads_per_sm=1536)
    results = {}
    for abbr in ("BP", "HS", "MM"):
        # Warp 32 (the paper's machine).
        columns32 = shared_runner.classified_columns(abbr)
        eff32 = {}
        for a in (base, arch):
            processed = process_columns(columns32, a)
            timing = simulate_architecture_columns(
                columns32, processed, a, shared_runner.config
            )
            report = PowerAccountant(a, shared_runner.params).account_columns(
                processed, timing
            )
            eff32[a.name] = report.ipc_per_watt
        # Warp 64 (the future machine), executed for this study only.
        columns64 = classify_columnar_batch(
            shared_runner.execute(abbr, 64),
            shared_runner.run(abbr).built.kernel.num_registers,
        )
        eff64 = {}
        for a in (base, arch):
            processed = process_columns(columns64, a)
            timing = simulate_architecture_columns(columns64, processed, a, config64)
            report = PowerAccountant(
                a, shared_runner.params, config64
            ).account_columns(processed, timing)
            eff64[a.name] = report.ipc_per_watt
        results[abbr] = {
            "gain32": eff32["gscalar"] / eff32["baseline"],
            "gain64": eff64["gscalar"] / eff64["baseline"],
            "eligible64": trace_statistics(columns64).eligible_fraction,
        }
    print()
    for abbr, values in results.items():
        print(
            f"  {abbr}: G-Scalar gain {values['gain32']:.2f}x @warp32 -> "
            f"{values['gain64']:.2f}x @warp64 "
            f"(eligible @64: {100 * values['eligible64']:.0f}%)"
        )
    # Scalar execution keeps paying off at warp 64 on every benchmark.
    assert all(v["gain64"] > 1.0 for v in results.values())


def test_scalar_bank_bottleneck(shared_runner):
    """§4.1's scalability argument: the prior architecture funnels every
    scalar operand through ONE scalar-RF bank, so bursts of scalar
    instructions from pace-matched warps serialize there; G-Scalar's
    per-bank BVR arrays have no such funnel."""
    alu_scalar = ArchitectureConfig.alu_scalar()
    gscalar = ArchitectureConfig.gscalar()
    results = {}
    for abbr in ("MM", "MQ", "BP"):  # scalar-heavy benchmarks
        columns = shared_runner.classified_columns(abbr)
        results[abbr] = {
            arch.name: simulate_architecture_columns(
                columns,
                process_columns(columns, arch),
                arch,
                shared_runner.config,
            )
            for arch in (alu_scalar, gscalar)
        }
    print()
    total_conflicts = 0
    for abbr, out in results.items():
        conflicts = out["alu_scalar"].scalar_bank_conflicts
        total_conflicts += conflicts
        print(
            f"  {abbr}: scalar-bank conflict events {conflicts} (ALU-scalar) "
            f"vs {out['gscalar'].scalar_bank_conflicts} (G-Scalar)"
        )
    # The single scalar bank really does serialize on scalar-heavy code.
    assert total_conflicts > 0
    # G-Scalar has no dedicated scalar bank at all.
    assert all(out["gscalar"].scalar_bank_conflicts == 0 for out in results.values())
