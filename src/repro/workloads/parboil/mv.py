"""``spmv`` (MV) proxy.

Signature reproduced: low full-scalar population but many partial
(3-byte / 2-byte) register values (§5.3 singles MV out, with MG, as the
benchmarks where byte-wise compression beats the scalar-only RF by
>40%).  Matrix values share only their exponent bytes; column indices
share their top bytes (locality within a row band); per-row nnz counts
differ, so the inner loop's trip-count branch diverges as short rows
finish early.  Memory-intensive by construction (gather per iteration).
"""

from __future__ import annotations

import numpy as np

from repro.isa import KernelBuilder
from repro.simt import LaunchConfig, MemoryImage
from repro.workloads import datagen
from repro.workloads.patterns import (
    INPUT_A,
    INPUT_B,
    INPUT_C,
    OUTPUT_A,
    thread_element_addr,
)
from repro.workloads.registry import BuiltWorkload, ScaleConfig

_SEED = 1212

# Fixed bases; :func:`layout` moves an array up when the one before it
# outgrows the gap.
_VALUES = INPUT_A
_COLUMNS = INPUT_B
_ROW_LENGTHS = INPUT_C
_VECTOR = 0x50_0000
_FIXED_BASES = (_VALUES, _COLUMNS, _ROW_LENGTHS, _VECTOR, OUTPUT_A)
_VECTOR_WORDS = 4096


def layout(scale: ScaleConfig) -> tuple[int, ...]:
    """Bases of the value, column, row-length, vector and output arrays.

    Each array keeps its fixed base unless the array before it reaches
    past that base; then it starts where that array ends.  The value
    and column arrays take ``threads * 2 * inner_iterations * 4`` bytes,
    so past 32 CTAs of 256 threads at 16 inner iterations they outgrow
    the 1 MiB between fixed bases.
    """
    threads = scale.grid_dim * scale.cta_dim
    matrix = 4 * threads * 2 * scale.inner_iterations
    sizes = (matrix, matrix, 4 * threads, 4 * _VECTOR_WORDS, 4 * threads)
    bases, end = [], 0
    for fixed, size in zip(_FIXED_BASES, sizes):
        bases.append(max(fixed, end))
        end = bases[-1] + size
    return tuple(bases)


def build(scale: ScaleConfig) -> BuiltWorkload:
    """Build the MV proxy at the given scale."""
    max_nnz = 2 * scale.inner_iterations
    # The kernel carries the base addresses as immediates.
    values, columns, row_lengths, vector, output = layout(scale)
    b = KernelBuilder("spmv")
    tid = b.tid()
    row_length = b.ld_global(thread_element_addr(b, tid, row_lengths))
    acc = b.mov(b.fimm(0.0))
    index = b.mov(0)

    def more_elements():
        return b.setlt(index, row_length)

    with b.while_(more_elements):
        element_addr = b.imad(index, 4, thread_element_addr(b, tid, values, 4 * max_nnz))
        value = b.ld_global(element_addr)  # 2-byte-similar floats
        column = b.ld_global(
            b.imad(index, 4, thread_element_addr(b, tid, columns, 4 * max_nnz))
        )
        x_value = b.ld_global(b.imad(column, 4, vector))  # gather
        acc = b.ffma(value, x_value, acc, dst=acc)
        index = b.iadd(index, 1, dst=index)

    b.st_global(thread_element_addr(b, tid, output), acc)
    kernel = b.finish()

    total_threads = scale.grid_dim * scale.cta_dim
    rng = np.random.default_rng(_SEED)
    # Row lengths vary within a warp -> trip-count divergence.
    lengths = rng.integers(
        max(1, (3 * max_nnz) // 4), max_nnz + 1, size=total_threads, dtype=np.uint64
    ).astype(np.uint32)
    memory = MemoryImage()
    memory.bind_array(row_lengths, lengths)
    memory.bind_array(
        values,
        datagen.narrow_floats(total_threads * max_nnz, 0.01, 0.009, _SEED + 1),
    )
    memory.bind_array(
        columns,
        datagen.shared_prefix_words(
            total_threads * max_nnz, 2, _SEED + 2, base=0x00010000
        )
        % np.uint32(_VECTOR_WORDS),
    )
    memory.bind_array(vector, datagen.narrow_floats(_VECTOR_WORDS, 1.0, 0.3, _SEED + 3))
    return BuiltWorkload(
        kernel=kernel,
        launch=LaunchConfig(grid_dim=scale.grid_dim, cta_dim=scale.cta_dim),
        memory=memory,
        description="CSR-style row dot products with ragged trip counts",
    )
