"""Seeded synthetic large-tier trace generation.

The streaming pipeline's headline claim — bounded memory on 10^6+-event
traces — needs traces that big, but executing a million-event kernel in
the functional simulator (and holding its trace) is exactly the cost
streaming exists to avoid.  This module generates such streams from a
*seed trace*: the workload's kernel executed once at the tier's
grid/CTA dimensions (tens of thousands of events), replicated until
the stream reaches the tier's ``synthetic_events`` floor.

Each replica is the seed trace with a deterministic, seeded
perturbation that preserves every structural invariant:

* **values** — one uniformly-random 32-bit constant per replica is
  added (mod 2^32) to every lane.  Lane-equality patterns are
  preserved exactly (uniform warps stay uniform, divergent stay
  divergent) while byte-level magnitudes — what the value compressor
  and the scalar classifier actually measure — vary across replicas;
* **addresses** — shifted by a replica-specific 128-byte-aligned
  offset, preserving each access's coalescing shape while touching
  fresh memory segments;
* **warp ids** — offset so every replica's warps are distinct;
  opcodes, masks, source registers and control structure are untouched
  (the replica is the same kernel shape, re-run on different data).

Replica 0 is the unperturbed seed trace.  Replication is warp-aligned,
so :func:`iter_synthetic_chunks` can stream the synthetic trace one
chunk at a time — at most one replica's arrays are live at once, and
the full stream is never materialized (``tests/reference/synth.py``
builds it, as the stream's oracle).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.simt.trace import ColumnarTrace, TraceChunk, iter_chunks
from repro.workloads.registry import ScaleConfig

#: Default seed for the per-replica perturbation streams.
DEFAULT_SEED = 0x675C


def synthetic_replicas(seed_trace: ColumnarTrace, scale: ScaleConfig) -> int:
    """Replicas needed to reach ``scale.synthetic_events`` events."""
    if scale.synthetic_events <= 0:
        return 1
    base = max(1, seed_trace.num_events)
    return max(1, -(-scale.synthetic_events // base))


def synthetic_num_events(seed_trace: ColumnarTrace, replicas: int) -> int:
    """Total events of the replicated stream."""
    return seed_trace.num_events * replicas


def replicate_columnar(
    seed_trace: ColumnarTrace, replica: int, seed: int = DEFAULT_SEED
) -> ColumnarTrace:
    """Build one perturbed replica of the seed trace (replica 0 = seed)."""
    if replica == 0:
        return seed_trace
    rng = np.random.default_rng([seed, replica])
    value_delta = np.uint32(rng.integers(0, 1 << 32, dtype=np.uint32))
    # 128-byte-aligned shift keeps every access's segment count.
    addr_delta = np.uint32(
        int(rng.integers(1, 1 << 20, dtype=np.uint32)) * 128
    )
    return ColumnarTrace(
        kernel_name=seed_trace.kernel_name,
        warp_size=seed_trace.warp_size,
        warp_ids=(
            seed_trace.warp_ids + np.int32(replica * seed_trace.num_warps)
        ),
        warp_lengths=seed_trace.warp_lengths,
        opcode_ids=seed_trace.opcode_ids,
        dst=seed_trace.dst,
        masks=seed_trace.masks,
        blocks=seed_trace.blocks,
        varying=seed_trace.varying,
        scalar_nonreg=seed_trace.scalar_nonreg,
        src_offsets=seed_trace.src_offsets,
        src_flat=seed_trace.src_flat,
        values_index=seed_trace.values_index,
        values=seed_trace.values + value_delta,
        addr_index=seed_trace.addr_index,
        addresses=seed_trace.addresses + addr_delta,
    )


def iter_synthetic_chunks(
    seed_trace: ColumnarTrace,
    replicas: int,
    chunk_events: int | None,
    seed: int = DEFAULT_SEED,
) -> Iterator[TraceChunk]:
    """Stream the replicated trace as chunks with *global* indexing.

    Replica boundaries are warp boundaries, so each replica is chunked
    independently (its trailing chunk may hold fewer than
    ``chunk_events`` events; without ``chunk_events`` each replica is
    one chunk) and only the chunk's index / event / warp offsets need
    rebasing to the global stream.  Consumers see the same
    contract as :func:`repro.simt.trace.iter_chunks`: every chunk is a
    run of whole warps.  Whether warps are grouped globally or per
    replica cannot change the pipeline's output (streaming is
    partition-invariant), only its phase.
    """
    chunk_index = 0
    event_base = 0
    warp_base = 0
    for replica in range(replicas):
        columnar = replicate_columnar(seed_trace, replica, seed)
        for chunk in iter_chunks(columnar, chunk_events):
            yield TraceChunk(
                columnar=chunk.columnar,
                index=chunk_index,
                start_event=event_base + chunk.start_event,
                warp_start=warp_base + chunk.warp_start,
            )
            chunk_index += 1
        event_base += columnar.num_events
        warp_base += columnar.num_warps
