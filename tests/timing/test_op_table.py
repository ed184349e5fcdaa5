"""Tests for the columnar timing-op table and its vectorized lowering.

:func:`~repro.timing.ops.build_timing_ops_columns` lowers a whole trace
to one :class:`~repro.timing.ops.TimingOpTable` with array operations.
These tests pin its pieces against the per-event oracles: the batched
coalescing against :func:`~tests.reference.timing.coalesce_addresses`, the
``to_ops``/``from_ops`` conversions against each other, chunk
concatenation against the whole-trace table, and the scalar-load
segment against the lowest active lane.  They also check that the
production paths never build a :class:`~tests.reference.timing.TimingOp`,
and that :func:`~repro.timing.ops.lowering_key` names every
configuration value the lowering reads.
"""

from __future__ import annotations

import dataclasses
import enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import ArchitectureConfig, GpuConfig
from repro.errors import ConfigError, TimingError
from repro.experiments.runner import ExperimentRunner, matrix_architectures
from repro.experiments.sensitivity import sweep_latency_parameter
from repro.experiments.streaming import stream_pipeline
from repro.isa import KernelBuilder
from repro.isa.opcodes import OpCategory, Opcode
from repro.obs.timeline import FlightRecorder
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.simt import MemoryImage, run_kernel
from repro.simt.trace import iter_chunks
from repro.timing import sm_event
from repro.timing.ops import (
    SCALAR_RF_BANK,
    TimingOpTable,
    build_timing_ops_columns,
    coalesce_address_rows,
    lowering_key,
)
from repro.timing.sm_event import EventSmSimulator
from repro.workloads.registry import build_workload

from tests.conftest import run_one_warp
from tests.oracles import classified_columns, processed_columns
from tests.reference.classify import classify_trace
from tests.reference.columns import assert_tables_identical
from tests.reference.interpret import process_classified
from tests.reference.timing import (
    TimingOp,
    build_timing_ops,
    coalesce_addresses,
    from_ops,
    to_ops,
)
from tests.reference.trace import to_trace
from tests.timing.test_sm_event import many_cta_warps, saturated_warps


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
    classified = classify_trace(to_trace(trace), kernel.num_registers)
    ccols = classify_columnar_batch(trace, kernel.num_registers)
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
            assert to_ops(table) == [
                build_timing_ops(warp, arch, config, trace.warp_size)
                for warp in processed
            ], arch.name


@pytest.fixture(scope="module")
def lc_tiny():
    """LC at tiny scale: four warps, decompress moves under G-Scalar."""
    built = build_workload("LC", "tiny")
    columnar = run_kernel(built.kernel, built.launch, built.memory)
    ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
    widths = analyze_widths(built.kernel, warp_size=columnar.warp_size).register_enc
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
        assert to_ops(from_ops(ops)) == ops

    def test_lowered_tables_survive_to_ops(self, lc_tiny, shared_barrier):
        # LC inserts decompress moves under G-Scalar; the hand-built
        # kernel has barriers and shared-memory accesses.
        arch = ArchitectureConfig.gscalar()
        for ccols in (lc_tiny[2], shared_barrier[3]):
            table = build_timing_ops_columns(
                ccols, process_columns(ccols, arch), arch, GpuConfig()
            )
            assert_tables_identical(table, from_ops(to_ops(table)))

    def test_empty(self):
        table = from_ops([])
        assert table.num_ops == 0
        assert to_ops(table) == []
        assert to_ops(from_ops([[], []])) == [[], []]

    def test_bank_per_source_required(self):
        with pytest.raises(TimingError):
            from_ops([[_alu(dst=0, srcs=(1, 2), banks=(1,))]])


# ----------------------------------------------------------------------
# Chunk fragments concatenate to the whole-trace table.
# ----------------------------------------------------------------------
class TestConcat:
    @pytest.mark.parametrize("chunk_events", [1, 7, None], ids=["1", "7", "whole"])
    def test_chunk_tables_join_to_whole_trace_table(self, lc_tiny, chunk_events):
        built, columnar, ccols, static_widths = lc_tiny
        arches = matrix_architectures()
        grid = chunk_events or columnar.num_events
        outcome = stream_pipeline(
            iter_chunks(columnar, grid),
            arches,
            built.kernel.num_registers,
            static_widths=static_widths,
        )
        config = GpuConfig()
        for arch in arches:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths[arch.name]
            )
            assert_tables_identical(
                build_timing_ops_columns(ccols, pcols, arch, config),
                outcome.tables[arch.name],
            )

    def test_no_fragments_is_an_empty_table(self):
        assert to_ops(TimingOpTable.concat([])) == []


class TestEventCompile:
    def test_blocks_compile_each_distinct_sequence_once(self):
        """Whatever the block floor, blocks are whole CTAs in warp order
        covering the table once; each block compiles each distinct warp
        sequence (segments aside) once and shares its rows, which equal
        one whole-range compile's, while every warp keeps the table's
        segments."""
        config = GpuConfig()
        arch = ArchitectureConfig.gscalar()
        runner = ExperimentRunner(scale="small")
        lbm = build_timing_ops_columns(
            classified_columns(runner, "LBM"),
            processed_columns(runner, "LBM", arch),
            arch,
            config,
        )
        # LBM: four 4-warp CTAs; then 3-warp CTAs of one program with
        # barriers; then 5-row CTAs, two to a 7-row block; then three
        # programs two warps at a time (programs 0, 0, 1, 1, 2, 2, ...),
        # so a block's new sequences are not adjacent, each warp with
        # its own segments.
        mixed = saturated_warps("banks", seed=1, num_warps=72, length=6)
        paired = [mixed[3 * warp + warp // 2 % 3] for warp in range(24)]
        # Last, two warps whose sources differ only in how they split
        # between rows.
        def alu(*srcs):
            return TimingOp(
                category=OpCategory.ALU,
                dst=3,
                src_regs=srcs,
                src_banks=srcs,
                dispatch_cycles=2,
                long_latency=False,
                is_store=False,
            )

        cases = [
            (lbm, runner.warps_per_cta("LBM")),
            (from_ops(many_cta_warps(24, 40, seed=1)), 3),
            (from_ops(many_cta_warps(24, 5, seed=2)), 1),
            (from_ops(paired), 2),
            (from_ops([[alu(1, 2), alu()], [alu(1), alu(2)]]), 1),
        ]
        compile_block = EventSmSimulator._compile_block
        compile_rows = EventSmSimulator._compile_rows
        for table, warps_per_cta in cases:
            whole = EventSmSimulator(table, config, extra_latency=3)._compile_rows(
                0, table.num_ops, {}
            )
            bounds = table.warp_bounds().tolist()
            ops = to_ops(table)
            sequences = [
                tuple(dataclasses.replace(op, mem_segments=()) for op in warp)
                for warp in ops
            ]
            for block_rows in (1, 7, 16384):
                blocks = []

                def spy_block(self, starts):
                    blocks.append({"starts": starts, "compiled": []})
                    rows, segments = compile_block(self, starts)
                    blocks[-1].update(rows=rows, segments=segments)
                    return rows, segments

                def spy_rows(self, lo, hi, interned):
                    blocks[-1]["compiled"].append((lo, hi))
                    return compile_rows(self, lo, hi, interned)

                simulator = EventSmSimulator(
                    table, config, extra_latency=3, warps_per_cta=warps_per_cta
                )
                with mock.patch.object(
                    sm_event, "_COMPILE_BLOCK_ROWS", block_rows
                ), mock.patch.object(
                    EventSmSimulator, "_compile_block", spy_block
                ), mock.patch.object(EventSmSimulator, "_compile_rows", spy_rows):
                    simulator.run()
                first = 0
                for block in blocks:
                    last = first + len(block["starts"]) - 1
                    assert first % warps_per_cta == 0
                    assert block["starts"] == bounds[first : last + 1]
                    warps = range(first, last)
                    compiled = [
                        warp
                        for lo, hi in block["compiled"]
                        for warp in warps
                        if lo <= bounds[warp] < hi
                    ]
                    distinct = {sequences[warp] for warp in warps} - {()}
                    assert len(compiled) == len(distinct)
                    assert {sequences[warp] for warp in compiled} == distinct
                    assert sum(hi - lo for lo, hi in block["compiled"]) == sum(
                        map(len, distinct)
                    )
                    for index, warp in enumerate(warps):
                        rows = block["rows"][index]
                        assert rows == whole[bounds[warp] : bounds[warp + 1]]
                        assert block["segments"][index] == [
                            op.mem_segments for op in ops[warp]
                        ]
                        for other in warps[:index]:
                            if sequences[other] == sequences[warp]:
                                assert block["rows"][other - first] is rows
                    first = last
                assert first == len(ops)
            assert len(blocks) == 1  # the default floor: one block


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
        classified = classify_trace(to_trace(trace), kernel.num_registers)
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
        ccols = classify_columnar_batch(trace, kernel.num_registers)
        table = build_timing_ops_columns(
            ccols, process_columns(ccols, arch), arch, config
        )
        assert to_ops(table) == [oracle]
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


# ----------------------------------------------------------------------
# The lowering key covers every GpuConfig value the lowering reads.
# ----------------------------------------------------------------------
def _config_variants(config: GpuConfig):
    """``(field, changed config)`` for a few valid changes of every
    :class:`GpuConfig` field, one field at a time."""
    for spec in dataclasses.fields(GpuConfig):
        value = getattr(config, spec.name)
        if isinstance(value, enum.Enum):
            candidates = [member for member in type(value) if member != value]
        elif isinstance(value, float):
            candidates = [value / 2, value * 2]
        else:
            candidates = [value - 1, value + 1, value // 2, value * 2]
        for candidate in candidates:
            try:
                yield spec.name, dataclasses.replace(config, **{spec.name: candidate})
            except ConfigError:
                continue


class TestLoweringKey:
    #: The only fields whose changes reach the lowering: the dispatch
    #: cycles (warp size over the ALU and SFU widths) and the bank count.
    KEY_FIELDS = {"warp_size", "simt_width", "sfu_width", "register_file_banks"}

    @pytest.mark.parametrize("abbr", ["BP", "HS", "LBM", "MM"])
    def test_configs_with_one_key_lower_to_one_table(self, abbr):
        runner = ExperimentRunner(scale="tiny")
        ccols = classified_columns(runner, abbr)
        variants = list(_config_variants(runner.config))
        assert {name for name, _ in variants} == {
            spec.name for spec in dataclasses.fields(GpuConfig)
        }
        moved = set()
        for arch in (
            ArchitectureConfig.baseline(),
            ArchitectureConfig.alu_scalar(),
            ArchitectureConfig.gscalar(),
        ):
            pcols = processed_columns(runner, abbr, arch)
            digests = {
                lowering_key(runner.config): build_timing_ops_columns(
                    ccols, pcols, arch, runner.config
                ).digest()
            }
            for name, config in variants:
                digest = build_timing_ops_columns(ccols, pcols, arch, config).digest()
                key = lowering_key(config)
                assert digests.setdefault(key, digest) == digest, (arch.name, name)
                if key != lowering_key(runner.config):
                    moved.add(name)
        assert moved == self.KEY_FIELDS

    def test_a_key_change_lowers_a_second_table(self):
        runner = ExperimentRunner(scale="tiny")
        arch = ArchitectureConfig.gscalar()
        runner.timing("BP", arch)
        assert runner.stats.counters["op_tables"] == 1
        slower = dataclasses.replace(runner.config, alu_latency=36)
        runner.simulate_sm("BP", arch, slower)
        assert runner.stats.counters["op_tables"] == 1
        narrower = dataclasses.replace(runner.config, sfu_width=8)
        assert lowering_key(narrower) != lowering_key(runner.config)
        runner.simulate_sm("BP", arch, narrower)
        assert runner.stats.counters["op_tables"] == 2
