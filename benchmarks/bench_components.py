"""Micro-benchmarks of the simulator's hot components.

These are conventional pytest-benchmark measurements (many rounds) of
the pieces that dominate a full figure regeneration: the functional
executor, the enc-bit compressor, the classifier, the timing-op
lowering and the SM timing loop, each on its production engine.
"""

import numpy as np

from repro.compression.bdi import bdi_compress
from repro.compression.gscalar import common_prefix_bytes, compress
from repro.config import ArchitectureConfig, GpuConfig
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt.executor import run_kernel
from repro.simt.grid import LaunchConfig
from repro.simt.memory_state import MemoryImage
from repro.timing.gpu import simulate_architecture_columns
from repro.timing.ops import build_timing_ops_columns
from repro.workloads.registry import SCALES, build_workload


def bench_executor_throughput(benchmark):
    """Functional execution rate (dynamic instructions/second)."""
    built = build_workload("HS", scale="tiny")

    def execute():
        # Rebuild memory each round: stores mutate it.
        fresh = build_workload("HS", scale="tiny")
        return run_kernel(fresh.kernel, fresh.launch, fresh.memory)

    trace = benchmark(execute)
    assert trace.total_instructions > 0


def bench_compressor_throughput(benchmark):
    """enc-bit computation over a batch of registers."""
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 2**32, size=(512, 32), dtype=np.uint64).astype(np.uint32)

    def compress_batch():
        return sum(common_prefix_bytes(row) for row in batch)

    total = benchmark(compress_batch)
    assert total >= 0


def bench_full_compress_roundtrip(benchmark):
    values = np.uint32(0xC0400000) + np.arange(32, dtype=np.uint32)
    result = benchmark(lambda: compress(values))
    assert result.enc >= 2


def bench_bdi_throughput(benchmark):
    rng = np.random.default_rng(1)
    batch = rng.integers(0, 1000, size=(256, 32), dtype=np.uint64).astype(np.uint32)
    benchmark(lambda: [bdi_compress(row) for row in batch])


def bench_tracker_throughput(benchmark):
    """Classification rate over one benchmark's columnar trace."""
    built = build_workload("SAD", scale="tiny")
    columnar = run_kernel(built.kernel, built.launch, built.memory).to_columnar()
    registers = built.kernel.num_registers

    result = benchmark(lambda: classify_columnar_batch(columnar, registers))
    assert result.num_events == columnar.num_events


def bench_sm_timing_throughput(benchmark):
    """Cycle-loop rate of the SM simulator."""
    built = build_workload("PF", scale="tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    columns = classify_columnar_batch(trace.to_columnar(), built.kernel.num_registers)
    arch = ArchitectureConfig.baseline()
    processed = process_columns(columns, arch)

    result = benchmark(
        lambda: simulate_architecture_columns(columns, processed, arch)
    )
    assert result.cycles > 0


def bench_timing_op_lowering(benchmark):
    built = build_workload("MM", scale="tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    columns = classify_columnar_batch(trace.to_columnar(), built.kernel.num_registers)
    arch = ArchitectureConfig.gscalar()
    processed = process_columns(columns, arch)
    config = GpuConfig()

    table = benchmark(
        lambda: build_timing_ops_columns(columns, processed, arch, config)
    )
    assert len(table.warp_lengths) > 0
