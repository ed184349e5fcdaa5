"""Whole-warp chunking of a trace.

:func:`repro.simt.trace.iter_chunks` and
:func:`repro.workloads.synth.iter_synthetic_chunks` cut a trace only
between warps: every chunk is a run of whole warps of at most
``chunk_events`` events, or one warp longer than that, so no per-warp
state crosses a chunk.  These tests check the grid on every tiny-scale
workload and on a replicated stream, at Hypothesis-drawn chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import run_kernel
from repro.simt.trace import iter_chunks
from repro.workloads.registry import all_workloads, build_workload
from repro.workloads.synth import iter_synthetic_chunks

from tests.reference.synth import materialize_synthetic

WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]
REPLICAS = 3

_TRACES: dict = {}


def tiny_trace(abbr: str):
    if abbr not in _TRACES:
        built = build_workload(abbr, "tiny")
        _TRACES[abbr] = run_kernel(built.kernel, built.launch, built.memory)
    return _TRACES[abbr]


def assert_whole_warp_chunks(chunks, whole, chunk_events):
    """``chunks`` tile ``whole`` in order, as runs of whole warps."""
    bounds = np.zeros(whole.num_warps + 1, dtype=np.int64)
    np.cumsum(whole.warp_lengths, out=bounds[1:])
    assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
    warp = 0
    for chunk in chunks:
        piece = chunk.columnar
        start, end = int(bounds[warp]), int(bounds[warp + piece.num_warps])
        assert chunk.warp_start == warp
        assert chunk.start_event == start
        assert chunk.num_events == end - start
        if chunk.num_events > chunk_events:
            assert piece.num_warps == 1
        # The chunk holds its warps' events and snapshots.
        assert np.array_equal(piece.opcode_ids, whole.opcode_ids[start:end])
        sources = slice(whole.src_offsets[start], whole.src_offsets[end])
        assert np.array_equal(piece.src_flat, whole.src_flat[sources])
        written = piece.values_index >= 0
        assert np.array_equal(
            piece.values[piece.values_index[written]],
            whole.values[whole.values_index[start:end][written]],
        )
        warp += piece.num_warps
    for name in ("warp_ids", "warp_lengths"):
        assert np.array_equal(
            np.concatenate([getattr(chunk.columnar, name) for chunk in chunks]),
            getattr(whole, name),
        ), name


class TestIterChunks:
    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_chunks_are_runs_of_whole_warps(self, abbr, data):
        trace = tiny_trace(abbr)
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=trace.num_events + 3)
        )
        chunks = list(iter_chunks(trace, chunk_events))
        assert_whole_warp_chunks(chunks, trace, chunk_events)
        # A chunk ends only before the warp that would take it past
        # ``chunk_events`` events.
        for chunk, following in zip(chunks, chunks[1:]):
            first_length = int(following.columnar.warp_lengths[0])
            assert chunk.num_events + first_length > chunk_events

    def test_empty_trace_is_one_empty_chunk(self):
        empty = tiny_trace("HS").slice_warps(0, 0)
        (chunk,) = iter_chunks(empty, 8)
        assert chunk.num_events == 0
        assert chunk.columnar.num_warps == 0
        assert (chunk.index, chunk.start_event, chunk.warp_start) == (0, 0, 0)

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_no_chunk_size_is_one_chunk_per_trace(self, abbr):
        trace = tiny_trace(abbr)
        (chunk,) = iter_chunks(trace, None)
        assert chunk.columnar is trace
        assert (chunk.index, chunk.start_event, chunk.warp_start) == (0, 0, 0)


class TestIterSyntheticChunks:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_replica_chunks_are_runs_of_whole_warps(self, data):
        seed = tiny_trace("HS")
        whole = materialize_synthetic(seed, REPLICAS)
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=whole.num_events + 3)
        )
        chunks = list(iter_synthetic_chunks(seed, REPLICAS, chunk_events))
        # ``warp_start`` and ``start_event`` count over the whole stream.
        assert_whole_warp_chunks(chunks, whole, chunk_events)

    def test_no_chunk_size_is_one_chunk_per_replica(self):
        seed = tiny_trace("HS")
        chunks = list(iter_synthetic_chunks(seed, REPLICAS, None))
        assert [chunk.num_events for chunk in chunks] == [seed.num_events] * REPLICAS
        assert_whole_warp_chunks(
            chunks, materialize_synthetic(seed, REPLICAS), seed.num_events
        )
