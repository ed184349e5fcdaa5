"""Quickstart: write a kernel, run it, and see what G-Scalar does to it.

This walks the full public API in ~60 lines:

1. build a small CUDA-like kernel with :class:`repro.isa.KernelBuilder`,
2. execute it functionally on a 32-wide SIMT machine,
3. classify every dynamic instruction for scalar eligibility,
4. run the cycle-level timing model, and
5. compare power efficiency between the baseline GPU and G-Scalar.

Run with:  python examples/quickstart.py
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


def build_kernel():
    """result[tid] = sigmoid(scale * x[tid]) + 2**iteration, looped."""
    b = KernelBuilder("quickstart")
    tid = b.tid()
    x = b.ld_global(b.imad(tid, 4, 0x1000))  # per-thread input
    scale = b.ld_global(b.mov(0x100))  # broadcast parameter -> scalar!
    acc = b.mov(b.fimm(0.0))
    with b.for_range(0, 4) as k:
        power = b.ex2(b.i2f(k))  # 2**k on the loop counter: scalar SFU
        term = b.fmul(x, b.fmul(scale, power))
        acc = b.fadd(acc, term, dst=acc)
    b.st_global(b.imad(tid, 4, 0x2000), acc)
    return b.finish()


def main():
    kernel = build_kernel()
    print(f"built {kernel}")

    memory = MemoryImage()
    memory.bind_array(0x100, np.array([0.5], dtype=np.float32))
    memory.bind_array(0x1000, np.linspace(0, 1, 256, dtype=np.float32))
    launch = LaunchConfig(grid_dim=2, cta_dim=128)

    trace = run_kernel(kernel, launch, memory)
    print(f"executed {trace.total_instructions} dynamic instructions "
          f"over {len(trace.warps)} warps")

    columns = classify_columnar_batch(trace.to_columnar(), kernel.num_registers)
    stats = trace_statistics(columns)
    print("\nscalar eligibility (Figure 9 buckets):")
    for cls in ScalarClass:
        if stats.class_counts[cls]:
            print(f"  {cls.value:18s} {100 * stats.fraction(cls):5.1f}%")

    print("\narchitecture comparison:")
    for arch in (ArchitectureConfig.baseline(), ArchitectureConfig.gscalar()):
        processed = process_columns(columns, arch)
        timing = simulate_architecture_columns(columns, processed, arch)
        report = PowerAccountant(arch).account_columns(processed, timing)
        print(
            f"  {arch.name:10s} ipc={report.ipc:5.2f} "
            f"power={report.total_power_w:5.2f} W/SM "
            f"ipc/W={report.ipc_per_watt:6.3f}"
        )

    result = memory.read_array(0x2000, 4, dtype=np.float32)
    print(f"\nfirst outputs: {result}")


if __name__ == "__main__":
    main()
