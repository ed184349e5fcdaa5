"""Differential tests: batch classification engine vs the per-event tracker.

The batch engine (:mod:`repro.scalar.batch`) must be *bit-identical* to
the original per-event state machine — same ``ClassifiedEvent`` stream,
field for field, on every workload.  These tests compare the two engines
(plus the columnar entry point) event by event, and fuzz the vectorized
compression kernels against their scalar references.
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
from repro.errors import TraceError
from repro.isa import KernelBuilder
from repro.scalar.architectures import (
    process_classified,
    process_trace,
    processed_statistics,
)
from repro.scalar.batch import classify_columnar_batch, classify_trace_batch
from repro.scalar.tracker import classify_trace, trace_statistics
from repro.simt import LaunchConfig, MemoryImage, run_kernel

from tests.conftest import run_one_warp
from repro.workloads.registry import all_workloads, build_workload


def assert_classified_equal(expected, actual):
    """Field-by-field equality of two per-warp classified streams."""
    assert len(expected) == len(actual)
    for warp_e, warp_a in zip(expected, actual):
        assert len(warp_e) == len(warp_a)
        for ev_e, ev_a in zip(warp_e, warp_a):
            assert ev_e.event.opcode is ev_a.event.opcode
            assert ev_e.event.dst == ev_a.event.dst
            assert ev_e.event.src_regs == ev_a.event.src_regs
            assert ev_e.event.active_mask == ev_a.event.active_mask
            assert ev_e.scalar_class is ev_a.scalar_class
            assert ev_e.divergent == ev_a.divergent
            assert ev_e.sources == ev_a.sources
            assert ev_e.dst_encoding == ev_a.dst_encoding
            assert ev_e.dst_encoding_before == ev_a.dst_encoding_before
            assert ev_e.needs_decompress_move == ev_a.needs_decompress_move
            assert ev_e.lo_half_scalar_exec == ev_a.lo_half_scalar_exec
            assert ev_e.hi_half_scalar_exec == ev_a.hi_half_scalar_exec


def assert_engines_agree(trace, num_registers):
    """Event, batch and columnar-batch engines produce one stream."""
    reference = classify_trace(trace, num_registers)
    batch = classify_trace_batch(trace, num_registers)
    assert_classified_equal(reference, batch)
    rebuilt, columnar_batch = classify_columnar_batch(
        trace.to_columnar(), num_registers
    )
    assert_classified_equal(reference, columnar_batch)
    assert rebuilt.total_instructions == trace.total_instructions
    assert trace_statistics(reference) == trace_statistics(batch)
    assert trace_statistics(reference) == trace_statistics(columnar_batch)


ALL_ABBRS = [spec.abbr for spec in all_workloads()]


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("abbr", ALL_ABBRS)
    def test_every_workload_tiny(self, abbr):
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
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
        assert len(trace.warps) == 6
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
        for arch in (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        ):
            via_batch = process_trace(trace, arch, n)
            via_event = process_classified(
                classify_trace(trace, n), arch, trace.warp_size
            )
            assert processed_statistics(via_batch) == processed_statistics(
                via_event
            )
            flags_batch = [
                (p.scalar_executed, p.lo_half_scalar, p.hi_half_scalar, p.exec_lanes)
                for warp in via_batch
                for p in warp
            ]
            flags_event = [
                (p.scalar_executed, p.lo_half_scalar, p.hi_half_scalar, p.exec_lanes)
                for warp in via_event
                for p in warp
            ]
            assert flags_batch == flags_event


class TestDispatch:
    def test_negative_registers_rejected(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        with pytest.raises(TraceError):
            classify_trace_batch(trace, -1)
        with pytest.raises(TraceError):
            classify_columnar_batch(trace.to_columnar(), -1)

    def test_oversized_mask_rejected(self, scalar_heavy_kernel):
        trace = run_one_warp(scalar_heavy_kernel, MemoryImage())
        columnar = trace.to_columnar()
        columnar.masks[0] = np.uint64(1) << np.uint64(trace.warp_size)
        with pytest.raises(TraceError, match="wider than warp size"):
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
