"""Divergent-scalar study: how divergence interacts with scalar execution.

The paper's key observation (§4.2) is that values in the *active lanes*
of a divergent path are often uniform even when the full register is
not.  This example sweeps the fraction of mixed (divergence-inducing)
warps in a boundary-condition kernel and reports:

* the fraction of divergent instructions (Figure 1's metric),
* how many of them G-Scalar can scalarize, and
* the resulting power-efficiency gap between G-Scalar with and without
  divergent-scalar support.

Run with:  python examples/divergence_study.py
"""

import numpy as np

from repro.config import ArchitectureConfig
from repro.isa import KernelBuilder
from repro.power import PowerAccountant
from repro.scalar import (
    ScalarClass,
    classify_columnar_batch,
    process_columns,
    trace_statistics,
)
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.timing import simulate_architecture_columns
from repro.workloads import datagen


def boundary_kernel(iterations=6):
    """A stencil-like loop whose boundary path works on shared constants."""
    b = KernelBuilder("boundary")
    tid = b.tid()
    omega = b.ld_global(b.mov(0x100))  # shared relaxation constant
    flag = b.ld_global(b.imad(tid, 4, 0x200))
    at_boundary = b.setne(flag, 0)
    value = b.ld_global(b.imad(tid, 4, 0x1000))
    with b.for_range(0, iterations):
        update = b.fmul(value, b.fimm(0.99))
        with b.if_(at_boundary) as branch:
            # Shared-constant chain: divergent-scalar candidates.
            damped = b.fmul(omega, b.fimm(0.5))
            clamped = b.fmin(damped, omega)
            value = b.fadd(value, clamped, dst=value)
            with branch.else_():
                value = b.fadd(value, update, dst=value)
    b.st_global(b.imad(tid, 4, 0x2000), value)
    return b.finish()


def run_at_mixed_fraction(mixed_fraction, threads=512):
    kernel = boundary_kernel()
    memory = MemoryImage()
    memory.bind_array(0x100, np.array([1.85], dtype=np.float32))
    memory.bind_array(
        0x200, datagen.boundary_mask_pattern(threads, mixed_fraction, seed=42)
    )
    memory.bind_array(0x1000, datagen.narrow_floats(threads, 1.0, 0.01, seed=7))
    trace = run_kernel(kernel, LaunchConfig(grid_dim=4, cta_dim=threads // 4), memory)
    columns = classify_columnar_batch(trace, kernel.num_registers)

    stats = trace_statistics(columns)
    efficiencies = {}
    for arch in (
        ArchitectureConfig.gscalar_no_divergent(),
        ArchitectureConfig.gscalar(),
    ):
        processed = process_columns(columns, arch)
        timing = simulate_architecture_columns(columns, processed, arch)
        report = PowerAccountant(arch).account_columns(processed, timing)
        efficiencies[arch.name] = report.ipc_per_watt
    return stats, efficiencies


def main():
    print(f"{'mixed warps':>12s} {'divergent%':>11s} {'div-scalar%':>12s} "
          f"{'divergent-scalar gain':>22s}")
    for mixed_fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        stats, efficiencies = run_at_mixed_fraction(mixed_fraction)
        gain = efficiencies["gscalar"] / efficiencies["gscalar_no_divergent"]
        print(
            f"{100 * mixed_fraction:11.0f}% "
            f"{100 * stats.divergent_fraction:10.1f}% "
            f"{100 * stats.fraction(ScalarClass.DIVERGENT_SCALAR):11.1f}% "
            f"{gain:21.3f}x"
        )
    print(
        "\nAs more warps diverge, divergent-scalar support matters more —"
        "\nthe mechanism behind G-Scalar's wins on lbm/heartwall (§4.2)."
    )


if __name__ == "__main__":
    main()
