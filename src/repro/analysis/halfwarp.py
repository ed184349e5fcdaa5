"""Chunk-granular scalar analysis for the warp-size sweep (Figure 10).

Figure 10 keeps the checking granularity fixed at 16 threads while the
warp size grows: at warp size 64 a "half-scalar" becomes a
"quarter-scalar" instruction.  The main tracker models the two-halves
hardware; this analysis generalizes to any number of 16-lane chunks
with per-chunk scalar flags, computed over a columnar trace.

An instruction counts as chunk-scalar when it is non-divergent, not
fully scalar, and at least one chunk has *all* of its register sources
scalar within that chunk (immediates count as scalar everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.merge import fixed
from repro.simt.trace import ColumnarTrace


@dataclass(frozen=True)
class ChunkScalarStats:
    """Figure 10 numbers for one benchmark at one warp size."""

    warp_size: int = fixed()
    granularity: int = fixed()
    total_instructions: int
    full_scalar_instructions: int
    chunk_scalar_instructions: int

    @property
    def chunk_scalar_fraction(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return self.chunk_scalar_instructions / self.total_instructions


def chunk_scalar_stats(
    trace: ColumnarTrace, granularity: int = 16
) -> ChunkScalarStats:
    """Count chunk-scalar-eligible instructions over a columnar trace.

    Each register write leaves a per-chunk state: a bit per 16-lane
    chunk whose lanes agree, and whether the whole register holds one
    value.  Divergent writes clear both (Figure 10 counts non-divergent
    eligibility only).  Every source read finds its state through
    :meth:`~repro.simt.trace.ColumnarTrace.latest_writes`; a source
    never written before is unknown and disqualifies its instruction.
    """
    warp_size = trace.warp_size
    if warp_size % granularity != 0:
        raise TraceError(
            f"granularity {granularity} must divide warp size {warp_size}"
        )
    chunks = warp_size // granularity
    count = trace.num_events
    divergent = trace.masks != np.uint64((1 << warp_size) - 1)

    writes = np.flatnonzero((trace.dst >= 0) & (trace.values_index >= 0))
    lanes = trace.values[trace.values_index[writes]]
    blocks = lanes.reshape(writes.size, chunks, granularity)
    uniform = np.all(blocks == blocks[:, :, :1], axis=2)
    fresh = ~divergent[writes]
    chunk_bits = np.zeros(count, dtype=np.uint64)
    chunk_bits[writes] = fresh * (
        uniform.astype(np.uint64) << np.arange(chunks, dtype=np.uint64)
    ).sum(axis=1, dtype=np.uint64)
    whole = np.zeros(count, dtype=bool)
    whole[writes] = fresh & np.all(lanes == lanes[:, :1], axis=1)

    src_events = trace.source_events()
    last = trace.latest_writes(src_events, trace.src_flat)
    known = last >= 0
    src_bits = np.where(known, chunk_bits[last], np.uint64(0))
    unknown = np.bincount(src_events[~known], minlength=count) > 0
    not_whole = (
        np.bincount(src_events[~(known & whole[last])], minlength=count) > 0
    )
    # AND of the sources' chunk bits; events without sources keep all
    # bits set (immediates are scalar in every chunk).
    chunk_ok = np.full(count, np.uint64((1 << chunks) - 1))
    has_sources = np.flatnonzero(np.diff(trace.src_offsets) > 0)
    if has_sources.size:
        chunk_ok[has_sources] = np.bitwise_and.reduceat(
            src_bits, trace.src_offsets[has_sources]
        )

    eligible = ~divergent & ~trace.varying & ~unknown
    fully = eligible & ~not_whole
    return ChunkScalarStats(
        warp_size=warp_size,
        granularity=granularity,
        total_instructions=count,
        full_scalar_instructions=int(fully.sum()),
        chunk_scalar_instructions=int(
            (eligible & ~fully & (chunk_ok != 0)).sum()
        ),
    )
