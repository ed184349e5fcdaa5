"""Bring your own kernel: a cooperative reduction not in the paper's suite.

Shows how a downstream user adds a new workload to the analysis
pipeline: a multi-warp CTA block-sum with shared memory and
``bar.sync`` barriers — a shape none of the 17 proxies covers — then
asks the standard questions: how divergent is it, what can G-Scalar
scalarize, and what does that do to power?

Run with:  python examples/custom_kernel.py
"""

import numpy as np

from repro.analysis import access_distribution
from repro.analysis.static_ import lint_kernel
from repro.config import ArchitectureConfig
from repro.isa import KernelBuilder
from repro.power import PowerAccountant
from repro.scalar import classify_columnar_batch, process_columns, trace_statistics
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.timing import simulate_architecture_columns


def reduction_kernel(cta_size=128):
    """Cross-warp tree reduction through shared memory.

    Every thread publishes its element; after a barrier, the active set
    halves each level (the classic reduction divergence pattern) with a
    barrier per level; lane 0 of the CTA writes the block sum.
    """
    b = KernelBuilder("block_reduce")
    tid = b.tid()
    lane_in_cta = b.iadd(b.imul(b.warp_in_cta(), 32), b.lane())
    x = b.ld_global(b.imad(tid, 4, 0x1000))
    b.st_shared(b.imul(lane_in_cta, 4), x)
    b.barrier()

    stride = b.mov(cta_size // 2)

    def still_reducing():
        return b.setgt(stride, 0)

    with b.while_(still_reducing):
        is_active = b.setlt(lane_in_cta, stride)
        with b.if_(is_active):
            mine = b.ld_shared(b.imul(lane_in_cta, 4))
            theirs = b.ld_shared(b.imul(b.iadd(lane_in_cta, stride), 4))
            b.st_shared(b.imul(lane_in_cta, 4), b.iadd(mine, theirs))
        stride = b.shr(stride, 1, dst=stride)
        b.barrier()  # level complete before anyone reads across warps

    is_leader = b.seteq(lane_in_cta, 0)
    with b.if_(is_leader):
        total = b.ld_shared(b.mov(0))
        b.st_global(b.imad(b.ctaid(), 4, 0x2000), total)
    return b.finish()


def main():
    cta = 128
    kernel = reduction_kernel(cta)
    print(lint_kernel(kernel).render())

    memory = MemoryImage()
    data = np.arange(512, dtype=np.uint32)
    memory.bind_array(0x1000, data)
    launch = LaunchConfig(grid_dim=4, cta_dim=cta)
    trace = run_kernel(kernel, launch, memory)

    # Functional correctness first.
    sums = memory.read_array(0x2000, 4)
    expected = data.reshape(4, cta).sum(axis=1, dtype=np.uint32)
    assert np.array_equal(sums, expected), (sums, expected)
    print(f"block sums verified: {sums.tolist()}")

    columns = classify_columnar_batch(trace, kernel.num_registers)
    stats = trace_statistics(columns)
    dist = access_distribution(columns)
    print(f"\ndivergent instructions : {100 * stats.divergent_fraction:.1f}%")
    print(f"scalar-eligible        : {100 * stats.eligible_fraction:.1f}%")
    print("RF reads by class      : "
          + ", ".join(f"{k}={100 * v:.0f}%"
                      for k, v in dist.fractions().items() if v > 0.01))

    print("\npower efficiency:")
    warps_per_cta = launch.warps_per_cta(trace.warp_size)
    for arch in (ArchitectureConfig.baseline(), ArchitectureConfig.gscalar()):
        processed = process_columns(columns, arch)
        timing = simulate_architecture_columns(
            columns, processed, arch, warps_per_cta=warps_per_cta
        )
        power = PowerAccountant(arch).account_columns(processed, timing)
        print(f"  {arch.name:10s} ipc/W = {power.ipc_per_watt:.3f}")


if __name__ == "__main__":
    main()
