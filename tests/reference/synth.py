"""The whole replicated trace: the oracle of the synthetic replica stream.

The runner streams a synthetic tier one replica chunk at a time
(:func:`repro.workloads.synth.iter_synthetic_chunks`) and never builds
the whole trace.  :func:`materialize_synthetic` builds it here, from
the same replicas joined by :func:`concat_columnar`, so the tests can
compare the stream with the trace it stands for.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.simt.trace import ColumnarTrace
from repro.workloads.synth import DEFAULT_SEED, replicate_columnar


def concat_columnar(traces: list[ColumnarTrace]) -> ColumnarTrace:
    """Concatenate whole-warp columnar traces into one stream.

    The inverse of warp-aligned slicing: per-event and flat arrays
    concatenate, offset/row-index tables rebase.
    """
    if not traces:
        raise TraceError("concat_columnar needs >= 1 trace")
    first = traces[0]
    src_offsets = np.zeros(
        sum(t.num_events for t in traces) + 1, dtype=np.int64
    )
    position = 0
    src_base = 0
    values_index_parts = []
    addr_index_parts = []
    values_base = 0
    addr_base = 0
    for trace in traces:
        count = trace.num_events
        src_offsets[position + 1 : position + count + 1] = (
            trace.src_offsets[1:] - trace.src_offsets[0] + src_base
        )
        src_base = int(src_offsets[position + count])
        position += count
        values_index_parts.append(
            np.where(
                trace.values_index >= 0,
                trace.values_index + values_base,
                -1,
            ).astype(np.int64)
        )
        values_base += int(trace.values.shape[0])
        addr_index_parts.append(
            np.where(
                trace.addr_index >= 0, trace.addr_index + addr_base, -1
            ).astype(np.int64)
        )
        addr_base += int(trace.addresses.shape[0])
    return ColumnarTrace(
        kernel_name=first.kernel_name,
        warp_size=first.warp_size,
        warp_ids=np.concatenate([t.warp_ids for t in traces]),
        warp_lengths=np.concatenate([t.warp_lengths for t in traces]),
        opcode_ids=np.concatenate([t.opcode_ids for t in traces]),
        dst=np.concatenate([t.dst for t in traces]),
        masks=np.concatenate([t.masks for t in traces]),
        blocks=np.concatenate([t.blocks for t in traces]),
        varying=np.concatenate([t.varying for t in traces]),
        scalar_nonreg=np.concatenate([t.scalar_nonreg for t in traces]),
        src_offsets=src_offsets,
        src_flat=np.concatenate([t.src_flat for t in traces]),
        values_index=np.concatenate(values_index_parts),
        values=np.concatenate([t.values for t in traces]),
        addr_index=np.concatenate(addr_index_parts),
        addresses=np.concatenate([t.addresses for t in traces]),
    )


def materialize_synthetic(
    seed_trace: ColumnarTrace, replicas: int, seed: int = DEFAULT_SEED
) -> ColumnarTrace:
    """The whole replicated trace as one :class:`ColumnarTrace`: every
    replica's arrays at once, which the stream never holds."""
    return concat_columnar(
        [
            replicate_columnar(seed_trace, replica, seed)
            for replica in range(replicas)
        ]
    )
