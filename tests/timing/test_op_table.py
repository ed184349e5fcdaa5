"""Tests for the columnar timing-op table and its vectorized lowering.

:func:`~repro.timing.ops.build_timing_ops_columns` lowers a whole trace
to one :class:`~repro.timing.ops.TimingOpTable` with array operations.
These tests pin its pieces against the per-event oracles: the batched
coalescing against :func:`~repro.timing.ops.coalesce_addresses`, the
``to_ops``/``from_ops`` conversions against each other, chunk
concatenation against the whole-trace table, and the scalar-load
segment against the lowest active lane.  They also check that the
production paths never build a :class:`~repro.timing.ops.TimingOp`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import ArchitectureConfig, GpuConfig
from repro.errors import TimingError
from repro.experiments.runner import ExperimentRunner, matrix_architectures
from repro.experiments.sensitivity import sweep_latency_parameter
from repro.experiments.streaming import StreamingPipeline
from repro.isa import KernelBuilder
from repro.isa.opcodes import OpCategory, Opcode
from repro.obs.timeline import FlightRecorder
from repro.scalar.arch_batch import process_columns
from repro.scalar.architectures import process_classified
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.tracker import classify_trace
from repro.simt import MemoryImage, run_kernel
from repro.simt.trace import iter_chunks
from repro.timing import sm_event
from repro.timing.ops import (
    SCALAR_RF_BANK,
    TimingOp,
    TimingOpTable,
    build_timing_ops,
    build_timing_ops_columns,
    coalesce_address_rows,
    coalesce_addresses,
)
from repro.timing.sm_event import EventSmSimulator
from repro.workloads.registry import build_workload
from tests.conftest import run_one_warp


def assert_tables_identical(expected: TimingOpTable, actual: TimingOpTable) -> None:
    for spec in dataclasses.fields(TimingOpTable):
        want, got = getattr(expected, spec.name), getattr(actual, spec.name)
        assert want.dtype == got.dtype, spec.name
        assert np.array_equal(want, got), spec.name


# ----------------------------------------------------------------------
# Batched coalescing vs the per-access oracle.
# ----------------------------------------------------------------------
_TOP = 2**32 - 1


@st.composite
def access_batches(draw):
    """Rows of lane addresses with masks and lowest-lane-only flags."""
    warp_size = draw(st.sampled_from([32, 64]))
    full = (1 << warp_size) - 1
    num_rows = draw(st.integers(min_value=0, max_value=6))
    addresses, masks, lowest = [], [], []
    for _ in range(num_rows):
        base = draw(
            st.one_of(
                st.integers(min_value=0, max_value=_TOP),
                st.integers(min_value=_TOP - 4096, max_value=_TOP),
            )
        )
        shape = draw(st.sampled_from(["one_segment", "straddle", "random"]))
        if shape == "one_segment":
            start = base - base % 128
            row = [
                start + draw(st.integers(min_value=0, max_value=127))
                for _ in range(warp_size)
            ]
        elif shape == "straddle":
            stride = draw(st.sampled_from([4, 8, 60, 132]))
            row = [min(base + lane * stride, _TOP) for lane in range(warp_size)]
        else:
            row = draw(
                st.lists(
                    st.integers(min_value=0, max_value=_TOP),
                    min_size=warp_size,
                    max_size=warp_size,
                )
            )
        addresses.append(row)
        masks.append(
            draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
        )
        lowest.append(draw(st.booleans()))
    return warp_size, addresses, masks, lowest


class TestCoalesceRows:
    @settings(max_examples=150, deadline=None)
    @given(batch=access_batches())
    def test_matches_per_access_coalescing(self, batch):
        warp_size, rows, masks, lowest = batch
        addresses = np.array(rows, dtype=np.uint32).reshape(len(rows), warp_size)
        counts, segments = coalesce_address_rows(
            addresses,
            np.array(masks, dtype=np.uint64),
            np.array(lowest, dtype=bool),
            warp_size,
        )
        expected = []
        for row, mask, only_lowest in zip(addresses, masks, lowest):
            if only_lowest:
                mask &= -mask  # the lowest active lane alone
            expected.append(coalesce_addresses(row, mask, warp_size))
        assert counts.tolist() == [len(e) for e in expected]
        assert segments.tolist() == [s for e in expected for s in e]


# ----------------------------------------------------------------------
# Barriers and shared memory (no paper workload uses either).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_barrier():
    """Two warps of one CTA: shared stores, bar.sync, shared loads of a
    neighbour's slot, then a divergent update stored to global memory."""
    b = KernelBuilder("shared_barrier")
    tid = b.tid()
    b.st_shared(b.imul(tid, 4), tid)
    b.barrier()
    value = b.ld_shared(b.imul(b.xor(tid, 1), 4))
    with b.if_(b.setlt(tid, 16)):
        b.iadd(value, 7, dst=value)
    b.barrier()
    b.st_global(b.imad(tid, 4, 0x3000), value)
    kernel = b.finish()
    trace = run_one_warp(kernel, cta=64)
    classified = classify_trace(trace, kernel.num_registers)
    ccols = classify_columnar_batch(trace.to_columnar(), kernel.num_registers)
    widths = analyze_widths(kernel, warp_size=trace.warp_size).register_enc
    return kernel, trace, classified, ccols, widths


class TestHandBuiltLowering:
    def test_matches_event_lowering(self, shared_barrier):
        _, trace, classified, ccols, widths = shared_barrier
        config = GpuConfig()
        fast = ArchitectureConfig.gscalar().replace(scalar_fast_dispatch=True)
        for arch in (*matrix_architectures(), fast):
            static = widths if arch.static_compression else None
            processed = process_classified(
                classified, arch, trace.warp_size, static_widths=static
            )
            table = build_timing_ops_columns(
                ccols, process_columns(ccols, arch, static_widths=static), arch, config
            )
            assert table.is_barrier.sum() == 4
            assert table.is_shared_mem.sum() == 4
            assert table.to_ops() == [
                build_timing_ops(warp, arch, config, trace.warp_size)
                for warp in processed
            ], arch.name


@pytest.fixture(scope="module")
def lc_tiny():
    """LC at tiny scale: four warps, decompress moves under G-Scalar."""
    built = build_workload("LC", "tiny")
    trace = run_kernel(built.kernel, built.launch, built.memory)
    columnar = trace.to_columnar()
    ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
    widths = analyze_widths(built.kernel, warp_size=trace.warp_size).register_enc
    static_widths = {
        arch.name: widths if arch.static_compression else None
        for arch in matrix_architectures()
    }
    return built, columnar, ccols, static_widths


# ----------------------------------------------------------------------
# to_ops / from_ops.
# ----------------------------------------------------------------------
def _alu(dst=None, srcs=(), inserted=False, banks=None):
    return TimingOp(
        category=OpCategory.ALU,
        dst=dst,
        src_regs=tuple(srcs),
        src_banks=tuple(banks if banks is not None else (r % 16 for r in srcs)),
        dispatch_cycles=2,
        long_latency=False,
        is_store=False,
        inserted=inserted,
    )


_BARRIER = TimingOp(
    category=OpCategory.CTRL,
    dst=None,
    src_regs=(),
    src_banks=(),
    dispatch_cycles=1,
    long_latency=False,
    is_store=False,
    is_barrier=True,
)


def _load(dst, segments, shared=False):
    return TimingOp(
        category=OpCategory.MEM,
        dst=dst,
        src_regs=(1,),
        src_banks=(1,),
        dispatch_cycles=max(2, len(segments)),
        long_latency=False,
        is_store=False,
        mem_segments=tuple(segments),
        is_shared_mem=shared,
    )


HAND_WRITTEN = {
    "barriers": [
        [_alu(dst=0), _BARRIER, _alu(dst=1, srcs=(0,)), _BARRIER],
        [_BARRIER, _BARRIER],
        [],
    ],
    "inserted_moves": [
        [
            _alu(dst=3, srcs=(3,), inserted=True),
            _alu(dst=3, srcs=(3,), inserted=True),
            _alu(dst=3, srcs=(2, 5), banks=(SCALAR_RF_BANK, 5)),
            _load(4, (7, 9, 12)),
            _load(5, (), shared=True),
        ],
        [_alu(), _alu(dst=0, srcs=(0,), inserted=True)],
    ],
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_from_ops_to_ops_is_identity(self, name):
        ops = HAND_WRITTEN[name]
        assert TimingOpTable.from_ops(ops).to_ops() == ops

    def test_lowered_tables_survive_to_ops(self, lc_tiny, shared_barrier):
        # LC inserts decompress moves under G-Scalar; the hand-built
        # kernel has barriers and shared-memory accesses.
        arch = ArchitectureConfig.gscalar()
        for ccols in (lc_tiny[2], shared_barrier[3]):
            table = build_timing_ops_columns(
                ccols, process_columns(ccols, arch), arch, GpuConfig()
            )
            assert_tables_identical(table, TimingOpTable.from_ops(table.to_ops()))

    def test_empty(self):
        table = TimingOpTable.from_ops([])
        assert table.num_ops == 0
        assert table.to_ops() == []
        assert TimingOpTable.from_ops([[], []]).to_ops() == [[], []]

    def test_bank_per_source_required(self):
        with pytest.raises(TimingError):
            TimingOpTable.from_ops([[_alu(dst=0, srcs=(1, 2), banks=(1,))]])


# ----------------------------------------------------------------------
# Chunk fragments concatenate to the whole-trace table.
# ----------------------------------------------------------------------
class TestConcat:
    @pytest.mark.parametrize("chunk_events", [1, 7, None], ids=["1", "7", "whole"])
    def test_chunk_tables_join_to_whole_trace_table(self, lc_tiny, chunk_events):
        built, columnar, ccols, static_widths = lc_tiny
        arches = matrix_architectures()
        pipeline = StreamingPipeline(
            arches, built.kernel.num_registers, static_widths=static_widths
        )
        for chunk in iter_chunks(columnar, chunk_events or columnar.num_events):
            pipeline.feed(chunk)
        if chunk_events == 7:
            assert any(pipeline.continued)  # a warp split mid-chunk
        config = GpuConfig()
        for arch in arches:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths[arch.name]
            )
            assert_tables_identical(
                build_timing_ops_columns(ccols, pcols, arch, config),
                TimingOpTable.concat(pipeline.op_tables[arch.name], pipeline.continued),
            )

    def test_no_fragments_is_an_empty_table(self):
        assert TimingOpTable.concat([], []).to_ops() == []


class TestEventCompile:
    def test_compile_blocks_do_not_change_rows(self, lc_tiny, monkeypatch):
        _, _, ccols, _ = lc_tiny
        arch = ArchitectureConfig.gscalar()
        config = GpuConfig()
        table = build_timing_ops_columns(
            ccols, process_columns(ccols, arch), arch, config
        )
        whole = EventSmSimulator(table, config, extra_latency=3)._compile()
        monkeypatch.setattr(sm_event, "_COMPILE_BLOCK_ROWS", 7)
        assert EventSmSimulator(table, config, extra_latency=3)._compile() == whole
        assert [len(rows) for rows in whole] == table.warp_lengths.tolist()


# ----------------------------------------------------------------------
# A scalar-executed access reads its segment from the lowest active lane.
# ----------------------------------------------------------------------
class TestScalarSegmentLane:
    def test_lane_zero_masked_off(self):
        """A divergent-scalar load that excludes lane 0: lane 0's address
        register still holds its old value, which must not be probed."""
        b = KernelBuilder("lane0_masked_scalar_load")
        tid = b.tid()
        addr = b.mov(0x9000)
        with b.if_(b.setne(tid, 0)):
            b.mov(0x1000, dst=addr)
            b.st_global(b.imad(tid, 4, 0x3000), b.ld_global(addr))
        kernel = b.finish()
        memory = MemoryImage()
        memory.bind_array(0x1000, np.arange(32, dtype=np.uint32))
        trace = run_one_warp(kernel, memory)
        classified = classify_trace(trace, kernel.num_registers)
        arch = ArchitectureConfig.gscalar()
        config = GpuConfig()

        processed = process_classified(classified, arch, trace.warp_size)
        (load,) = [
            item for item in processed[0]
            if item.classified.event.opcode is Opcode.LD_GLOBAL
        ]
        assert load.scalar_executed
        assert not load.classified.event.active_mask & 1
        assert int(load.classified.event.addresses[0]) == 0x9000  # stale lane 0

        oracle = build_timing_ops(processed[0], arch, config, trace.warp_size)
        ccols = classify_columnar_batch(trace.to_columnar(), kernel.num_registers)
        table = build_timing_ops_columns(
            ccols, process_columns(ccols, arch), arch, config
        )
        assert table.to_ops() == [oracle]
        loads = [
            op for op in oracle if op.category is OpCategory.MEM and not op.is_store
        ]
        assert [op.mem_segments for op in loads] == [(0x1000 // 128,)]


# ----------------------------------------------------------------------
# The production paths never build a TimingOp.
# ----------------------------------------------------------------------
@pytest.fixture
def no_timing_ops(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a production path built a TimingOp")

    monkeypatch.setattr(TimingOp, "__init__", refuse)


class TestNoTimingOpOnProductionPaths:
    def test_runner_timing(self, no_timing_ops):
        runner = ExperimentRunner(scale="tiny")
        for arch in matrix_architectures():
            assert runner.timing("BP", arch).instructions > 0

    def test_latency_sweep(self, no_timing_ops):
        runner = ExperimentRunner(scale="tiny")
        points = sweep_latency_parameter(
            runner, "alu_latency", (0.5, 1.0), benchmarks=("BP",)
        )
        assert len(points) == 2

    def test_chunked_runner(self, no_timing_ops):
        runner = ExperimentRunner(scale="tiny", chunk_events=64)
        for arch in matrix_architectures():
            assert runner.timing("BP", arch).instructions > 0

    def test_timeline_event_engine(self, no_timing_ops):
        runner = ExperimentRunner(scale="tiny")
        result = runner.timeline("BP", ArchitectureConfig.gscalar(), FlightRecorder())
        assert result.instructions > 0
