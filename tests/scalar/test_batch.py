"""Differential tests: vectorized classifier vs the per-event tracker.

:func:`repro.scalar.batch.classify_columnar_batch` must write exactly
the :class:`~repro.scalar.columns.ClassifiedColumns` the per-event
state machine (:func:`tests.reference.classify.classify_trace`) implies —
array for array, dtypes included — on every workload, whole or
chunked.  These tests compare the two through the oracle bridge
(:func:`tests.oracles.columns_from_classified`), and fuzz the
vectorized compression kernels against their scalar references.
"""

import numpy as np
import pytest

from repro.compression.encoding import SCALAR_PREFIX
from repro.compression.gscalar import (
    common_prefix_bytes,
    compress,
    decompress,
    masked_prefix_bytes_batch,
    prefix_bytes_batch,
)
from repro.compression.half import compress_halves, compress_halves_batch
from repro.config import ArchitectureConfig
from repro.errors import CompressionError, TraceError
from repro.isa import KernelBuilder
from repro.obs.telemetry import telemetry_session
from repro.scalar import batch
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import CLASSIFIED_ARRAY_FIELDS
from repro.scalar.tracker import trace_statistics
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.simt.trace import iter_chunks
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.oracles import columns_from_classified
from tests.reference.classify import classify_trace
from tests.reference.columns import concat_classified_columns, processed_columns_diff
from tests.reference.interpret import process_classified, processed_columns_from_events
from tests.reference.trace import to_trace


def assert_columns_equal(expected, actual):
    """Array-for-array (and dtype-for-dtype) equality of two column sets."""
    assert expected.warp_size == actual.warp_size
    for name in CLASSIFIED_ARRAY_FIELDS:
        left = getattr(expected, name)
        right = getattr(actual, name)
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert np.array_equal(left, right), name


def classify_chunked(columnar, num_registers, chunk_events):
    """Classify chunk by chunk and join the fragments."""
    return concat_classified_columns(
        [
            classify_columnar_batch(chunk.columnar, num_registers)
            for chunk in iter_chunks(columnar, chunk_events)
        ]
    )


def assert_engines_agree(columnar, num_registers):
    """The vectorized classifier writes the tracker's columns."""
    trace = to_trace(columnar)
    reference = columns_from_classified(
        classify_trace(trace, num_registers), trace.warp_size, columnar=columnar
    )
    columns = classify_columnar_batch(columnar, num_registers)
    assert_columns_equal(reference, columns)
    assert trace_statistics(reference) == trace_statistics(columns)
    return columnar, columns


ALL_ABBRS = [spec.abbr for spec in all_workloads()]


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_every_workload_tiny(self, abbr):
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        assert_engines_agree(trace, built.kernel.num_registers)

    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_every_workload_tiny_warp64(self, abbr):
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory, warp_size=64)
        assert_engines_agree(trace, built.kernel.num_registers)

    def test_divergent_kernel(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage(), cta=64)
        assert_engines_agree(trace, divergent_kernel.num_registers)

    def test_scalar_heavy_kernel(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        assert_engines_agree(trace, scalar_heavy_kernel.num_registers)

    def test_memory_kernel(self, saxpy_kernel, simple_memory):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        assert_engines_agree(trace, saxpy_kernel.num_registers)

    def test_warp_64(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage(), warp_size=64, cta=128)
        assert trace.warp_size == 64
        assert_engines_agree(trace, divergent_kernel.num_registers)

    def test_multi_warp_multi_cta(self, loop_kernel):
        memory = MemoryImage()
        launch = LaunchConfig(grid_dim=2, cta_dim=96)
        trace = run_kernel(loop_kernel, launch, memory)
        assert trace.num_warps == 6
        assert_engines_agree(trace, loop_kernel.num_registers)

    def test_barrier_kernel(self):
        from tests.simt.test_barrier import cta_reduction_kernel

        kernel = cta_reduction_kernel(64)
        memory = MemoryImage()
        memory.bind_array(0x1000, np.arange(64, dtype=np.uint32))
        trace = run_kernel(kernel, LaunchConfig(grid_dim=1, cta_dim=64), memory)
        assert_engines_agree(trace, kernel.num_registers)

    def test_architecture_results_identical(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage(), cta=64)
        n = divergent_kernel.num_registers
        columns = classify_columnar_batch(trace, n)
        classified = classify_trace(to_trace(trace), n)
        for arch in (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        ):
            via_events = processed_columns_from_events(
                process_classified(classified, arch, trace.warp_size),
                trace.warp_size,
            )
            assert not processed_columns_diff(
                via_events, process_columns(columns, arch)
            ), arch.name


class TestWriteBlocks:
    """Write rows are encoded :data:`repro.scalar.batch.WRITE_BLOCK_ROWS`
    at a time: at any block size, blocks holding divergent writes, full
    writes or both, the classifier writes the tracker's columns."""

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("abbr", ["BP", "LBM", "MQ"])
    def test_block_sizes_agree_with_the_tracker(self, abbr, rows, monkeypatch):
        monkeypatch.setattr(batch, "WRITE_BLOCK_ROWS", rows)
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        assert_engines_agree(trace, built.kernel.num_registers)


def _counters(telemetry):
    return {key: value for key, value in telemetry.counters.items()}


class TestChunked:
    """Chunk fragments joined equal the whole-trace columns."""

    @pytest.fixture(scope="class")
    def hs(self):
        built = build_workload("HS", "tiny")
        return (
            run_kernel(built.kernel, built.launch, built.memory),
            built.kernel.num_registers,
        )

    def test_chunk_sizes(self, hs):
        columnar, n = hs
        whole = classify_columnar_batch(columnar, n)
        longest = int(columnar.warp_lengths.max())
        # Sizes below the longest warp give one-warp chunks.
        for size in (1, 7, max(1, longest // 3), columnar.num_events):
            assert_columns_equal(whole, classify_chunked(columnar, n, size))

    @pytest.mark.parametrize("abbr", ["BP", "LBM", "MQ"])
    def test_divergent_workloads_chunked(self, abbr):
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        columnar, columns = assert_engines_agree(trace, built.kernel.num_registers)
        for size in (1, 7, 50):
            assert_columns_equal(
                columns, classify_chunked(columnar, built.kernel.num_registers, size)
            )

    def test_telemetry_equal_chunked_and_whole(self, hs):
        columnar, n = hs
        with telemetry_session() as whole:
            classify_columnar_batch(columnar, n)
        for size in (1, 7, max(1, int(columnar.warp_lengths.max()) // 3)):
            with telemetry_session() as chunked:
                classify_chunked(columnar, n, size)
            assert _counters(chunked) == _counters(whole), size
        assert whole.counters_named("scalar_class_transitions")


class TestDispatch:
    def test_negative_registers_rejected(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        with pytest.raises(TraceError):
            classify_columnar_batch(trace, -1)

    def test_oversized_mask_rejected(self, scalar_heavy_kernel):
        columnar = run_one_warp(scalar_heavy_kernel, MemoryImage())
        columnar.masks[0] = np.uint64(1) << np.uint64(columnar.warp_size)
        with pytest.raises(TraceError, match="wider than warp size"):
            classify_columnar_batch(columnar, scalar_heavy_kernel.num_registers)

    def test_full_warp64_mask_accepted(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage(), warp_size=64, cta=64)
        columns = classify_columnar_batch(trace, divergent_kernel.num_registers)
        assert columns.masks.max() == np.uint64(2**64 - 1)

    def test_odd_warp_size_rejected(self, scalar_heavy_kernel):
        columnar = run_one_warp(scalar_heavy_kernel, MemoryImage())
        columnar.warp_size = 31
        columnar.masks[:] = np.uint64(2**31 - 1)
        columnar.values = np.ascontiguousarray(columnar.values[:, :31])
        with pytest.raises(CompressionError):
            classify_columnar_batch(columnar, scalar_heavy_kernel.num_registers)


def _random_matrix(rng, rows, lanes):
    """Rows spanning all prefix classes: scalar, byte-perturbed, random."""
    base = rng.integers(0, 2**32, size=rows, dtype=np.uint64).astype(np.uint32)
    values = np.repeat(base[:, None], lanes, axis=1)
    kind = rng.integers(0, 5, size=rows)
    for row in range(rows):
        if kind[row] == 4:
            continue  # scalar row
        # Perturb the low `4 - kind` bytes of random lanes.
        byte_limit = np.uint32((1 << (8 * (4 - kind[row]))) - 1)
        noise = rng.integers(0, 2**32, size=lanes, dtype=np.uint64).astype(
            np.uint32
        )
        values[row] ^= noise & byte_limit
    return values


class TestBatchCompressionKernels:
    def test_prefix_bytes_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        for lanes in (2, 16, 32, 64):
            values = _random_matrix(rng, 200, lanes)
            batch = prefix_bytes_batch(values)
            for row in range(values.shape[0]):
                assert batch[row] == common_prefix_bytes(values[row])

    def test_prefix_bytes_batch_single_lane_trivially_scalar(self):
        values = np.arange(8, dtype=np.uint32)[:, None]
        assert np.all(prefix_bytes_batch(values) == SCALAR_PREFIX)

    def test_masked_prefix_bytes_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        values = _random_matrix(rng, 200, 32)
        masks = rng.random((200, 32)) < 0.6
        batch = masked_prefix_bytes_batch(values, masks)
        for row in range(values.shape[0]):
            assert batch[row] == common_prefix_bytes(values[row], masks[row])

    def test_masked_prefix_zero_or_one_active_is_scalar(self):
        values = np.arange(64, dtype=np.uint32).reshape(2, 32)
        masks = np.zeros((2, 32), dtype=bool)
        masks[1, 5] = True
        assert np.all(
            masked_prefix_bytes_batch(values, masks) == SCALAR_PREFIX
        )

    def test_compress_decompress_roundtrip(self):
        rng = np.random.default_rng(13)
        values = _random_matrix(rng, 100, 32)
        for row in range(values.shape[0]):
            compressed = compress(values[row])
            assert compressed.enc == common_prefix_bytes(values[row])
            assert np.array_equal(decompress(compressed), values[row])

    def test_compress_halves_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        for lanes, granularity in ((32, None), (32, 8), (64, 16)):
            values = _random_matrix(rng, 150, lanes)
            batch = compress_halves_batch(values, granularity)
            for row in range(values.shape[0]):
                single = compress_halves(values[row], granularity)
                assert batch.enc_lo[row] == single.enc_lo
                assert batch.enc_hi[row] == single.enc_hi
                assert batch.base_lo[row] == single.base_lo
                assert batch.base_hi[row] == single.base_hi
                assert bool(batch.full_scalar[row]) == single.full_scalar

    def test_compress_halves_batch_chunk_disagree(self):
        # Each 16-lane chunk is internally scalar but the chunks hold
        # different values: the half must NOT be reported scalar.
        row = np.concatenate(
            [
                np.full(16, 0x11223344, dtype=np.uint32),
                np.full(16, 0x11223355, dtype=np.uint32),
                np.full(32, 0xAABBCCDD, dtype=np.uint32),
            ]
        )
        values = row[None, :]
        batch = compress_halves_batch(values, granularity=16)
        single = compress_halves(row, granularity=16)
        assert batch.enc_lo[0] == single.enc_lo < SCALAR_PREFIX
        assert batch.enc_hi[0] == single.enc_hi == SCALAR_PREFIX
        assert not bool(batch.full_scalar[0])


class TestDivergentWrites:
    def test_divergent_write_then_uniform_read(self):
        """§4.2: a divergently-written register read back under the same
        mask is still scalar for that read; both engines must agree on
        the decompress-move bookkeeping too."""
        b = KernelBuilder("div_write")
        tid = b.tid()
        c = b.mov(7)
        is_even = b.seteq(b.and_(tid, 1), 0)
        with b.if_(is_even):
            x = b.iadd(c, 1)
            b.iadd(x, 2)
        b.st_global(b.imad(tid, 4, 0x3000), c)
        kernel = b.finish()
        trace = run_one_warp(kernel, MemoryImage())
        assert_engines_agree(trace, kernel.num_registers)
