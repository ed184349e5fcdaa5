"""Differential tests: vectorized architecture interpretation vs events.

The batch engine (:mod:`repro.scalar.arch_batch`) must be *bit-identical*
to the per-event :class:`~tests.reference.interpret.ArchitectureView` —
same per-event scalar/half/exec-lane columns, same RF-access stream,
same lowered timing ops and the same power report — on every workload
and every evaluated architecture.  These tests pin that contract at
each pipeline layer.
"""

import numpy as np
import pytest

from repro.config import EVALUATED_ARCHITECTURES, ArchitectureConfig, GpuConfig
from repro.errors import ConfigError
from repro.isa import KernelBuilder
from repro.power.accounting import PowerAccountant
from repro.regfile.scalar_rf import ScalarRegisterFile
from repro.scalar import arch_batch
from repro.scalar.arch_batch import ArchCarry, process_columns, process_columns_chunk
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import (
    CLASSIFIED_ARRAY_FIELDS,
    CTRL_CODE,
    FULL_READ_ID,
    FULL_WRITE_ID,
    PARTIAL_WRITE_ID,
    SCALAR_RF_READ_ID,
    SCALAR_RF_WRITE_ID,
    ClassifiedColumns,
)
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.eligibility import SCALAR_CLASS_TO_ID, ScalarClass
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.experiments.runner import matrix_architectures
from repro.timing.ops import build_timing_ops_columns
from repro.analysis.static_.widths import analyze_widths
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.reference.classify import classify_trace
from tests.reference.columns import processed_columns_diff
from tests.reference.interpret import process_classified, processed_columns_from_events
from tests.reference.power import account
from tests.reference.timing import lower_to_timing_ops, simulate_architecture, to_ops
from tests.reference.trace import to_trace

ARCH_IDS = [arch.name for arch in EVALUATED_ARCHITECTURES]
#: ALU-scalar without its dedicated scalar RF: the uncompressed regime
#: with scalar execution, which no evaluated architecture reaches.
VECTOR_RF_ALU_SCALAR = ArchitectureConfig.alu_scalar().replace(
    name="alu_scalar_vector_rf", dedicated_scalar_rf=False
)
MATRIX = (*EVALUATED_ARCHITECTURES, VECTOR_RF_ALU_SCALAR)
WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]

_CASE_CACHE: dict[str, tuple] = {}
_WIDTHS_CACHE: dict[str, tuple[int, ...]] = {}


def workload_case(abbr: str):
    """Trace, tracker stream and classified columns for one small-scale
    workload."""
    if abbr not in _CASE_CACHE:
        built = build_workload(abbr, "small")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(to_trace(trace), built.kernel.num_registers)
        ccols = classify_columnar_batch(
            trace, built.kernel.num_registers
        )
        _CASE_CACHE[abbr] = (trace, classified, ccols)
    return _CASE_CACHE[abbr]


def static_widths_case(abbr: str) -> tuple[int, ...]:
    """Per-register static widths for one small-scale workload."""
    if abbr not in _WIDTHS_CACHE:
        built = build_workload(abbr, "small")
        trace, _, _ = workload_case(abbr)
        _WIDTHS_CACHE[abbr] = analyze_widths(
            built.kernel, warp_size=trace.warp_size
        ).register_enc
    return _WIDTHS_CACHE[abbr]


def assert_processed_identical(classified, ccols, arch, warp_size, **kwargs):
    expected = processed_columns_from_events(
        process_classified(classified, arch, warp_size, **kwargs),
        warp_size,
    )
    actual = process_columns(ccols, arch, **kwargs)
    assert processed_columns_diff(expected, actual) == []
    return actual


class TestWorkloadMatrix:
    """Exact array equality on all 17 workloads x all 4 architectures,
    and ALU-scalar on the vector RF."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    @pytest.mark.parametrize("arch", MATRIX, ids=[arch.name for arch in MATRIX])
    def test_processed_columns_identical(self, abbr, arch):
        trace, classified, ccols = workload_case(abbr)
        assert_processed_identical(classified, ccols, arch, trace.warp_size)

    def test_vector_rf_alu_scalar_executes_every_alu_scalar_event(self):
        # With no scalar RF to miss in, every ALU_SCALAR event executes
        # scalar (8,712 over the small-scale workloads).
        executed = 0
        for abbr in WORKLOAD_ABBRS:
            _, _, ccols = workload_case(abbr)
            pcols = process_columns(ccols, VECTOR_RF_ALU_SCALAR)
            alu = ccols.scalar_class_ids == SCALAR_CLASS_TO_ID[ScalarClass.ALU_SCALAR]
            assert np.array_equal(pcols.scalar_executed, alu), abbr
            executed += int(alu.sum())
        assert executed > 0


def assert_lowering_identical(classified, ccols, arch, warp_size, **kwargs):
    """The op table of the columns holds the event path's op streams."""
    config = GpuConfig()
    processed = process_classified(classified, arch, warp_size, **kwargs)
    pcols = process_columns(ccols, arch, **kwargs)
    table = build_timing_ops_columns(ccols, pcols, arch, config)
    assert to_ops(table) == lower_to_timing_ops(processed, arch, config, warp_size)
    return processed, pcols


class TestDownstreamParity:
    """Timing ops and power reports built from columns match the events."""

    BENCHES = ("BP", "SR2", "MQ", "HS")

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_timing_op_table_identical(self, abbr):
        """All 17 workloads x 5 architectures (static widths included)
        plus the fast-dispatch ablation."""
        trace, classified, ccols = workload_case(abbr)
        widths = static_widths_case(abbr)
        fast = ArchitectureConfig.gscalar().replace(scalar_fast_dispatch=True)
        for arch in (*matrix_architectures(), fast):
            assert_lowering_identical(
                classified,
                ccols,
                arch,
                trace.warp_size,
                static_widths=widths if arch.static_compression else None,
            )

    @pytest.mark.parametrize("abbr", BENCHES)
    @pytest.mark.parametrize("arch", EVALUATED_ARCHITECTURES, ids=ARCH_IDS)
    def test_timing_ops_and_power_identical(self, abbr, arch):
        trace, classified, ccols = workload_case(abbr)
        config = GpuConfig()
        processed, pcols = assert_lowering_identical(
            classified, ccols, arch, trace.warp_size
        )
        timing = simulate_architecture(processed, arch, config, trace.warp_size)
        accountant = PowerAccountant(arch, config=config)
        assert accountant.account_columns(pcols, timing) == account(
            accountant, processed, timing
        )

    def test_scalar_fast_dispatch_ablation(self):
        trace, classified, ccols = workload_case("BP")
        arch = ArchitectureConfig.gscalar().replace(scalar_fast_dispatch=True)
        _, pcols = assert_lowering_identical(classified, ccols, arch, trace.warp_size)
        # The ablation really changes dispatch: a scalar op takes 1 cycle.
        table = build_timing_ops_columns(ccols, pcols, arch, GpuConfig())
        assert pcols.scalar_executed.any()
        assert (table.dispatch_cycles[~table.inserted] == 1).sum() > (
            pcols.category_codes == CTRL_CODE
        ).sum()


class TestMoveElision:
    def test_move_elision_matches_event_path(self):
        built = build_workload("BP", "small")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(to_trace(trace), built.kernel.num_registers)
        ccols = classify_columnar_batch(
            trace, built.kernel.num_registers
        )
        elision = MoveElisionAnalysis(built.kernel)
        arch = ArchitectureConfig.gscalar()
        with_elision = assert_processed_identical(
            classified, ccols, arch, trace.warp_size, move_elision=elision
        )
        without = process_columns(ccols, arch)
        assert with_elision.extra_instructions.sum() <= without.extra_instructions.sum()


class TestScalarRfPath:
    """The stateful dedicated-scalar-RF walk stays bit-identical too."""

    def test_divergent_overwrite_stream(self, divergent_kernel):
        trace = run_one_warp(divergent_kernel, MemoryImage())
        classified = classify_trace(to_trace(trace), divergent_kernel.num_registers)
        ccols = classify_columnar_batch(
            trace, divergent_kernel.num_registers
        )
        assert_processed_identical(
            classified, ccols, ArchitectureConfig.alu_scalar(), trace.warp_size
        )

    def test_capacity_pressure_stream(self):
        from repro.isa import KernelBuilder

        b = KernelBuilder("many_scalars")
        tid = b.tid()
        acc = b.mov(0)
        for i in range(40):
            acc = b.iadd(acc, i + 1, dst=acc)
        b.st_global(b.imad(tid, 4, 0x3000), acc)
        kernel = b.finish()
        trace = run_one_warp(kernel, MemoryImage())
        classified = classify_trace(to_trace(trace), kernel.num_registers)
        ccols = classify_columnar_batch(trace, kernel.num_registers)
        assert_processed_identical(
            classified, ccols, ArchitectureConfig.alu_scalar(), trace.warp_size
        )


@pytest.fixture
def walks(monkeypatch):
    """The register files the ALU-scalar walk constructs, one per walk."""
    made = []

    class Counted(ScalarRegisterFile):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(arch_batch, "ScalarRegisterFile", Counted)
    return made


def distinct_walk_inputs(ccols) -> int:
    """Distinct warps by the columns the scalar-RF walk reads, as lists."""
    alu = ccols.scalar_class_ids == SCALAR_CLASS_TO_ID[ScalarClass.ALU_SCALAR]
    bounds = ccols.warp_bounds().tolist()
    offsets = ccols.src_offsets
    seen = set()
    for first, end in zip(bounds, bounds[1:]):
        lo, hi = int(offsets[first]), int(offsets[end])
        seen.add(
            (
                *(
                    tuple(column[first:end].tolist())
                    for column in (
                        alu,
                        ccols.has_dst_enc,
                        ccols.divergent,
                        ccols.dst_is_scalar,
                        ccols.dst,
                    )
                ),
                tuple((offsets[first : end + 1] - lo).tolist()),
                tuple(ccols.src_registers[lo:hi].tolist()),
            )
        )
    return len(seen)


class TestKeyedScalarRfWalk:
    """ALU-scalar walks each distinct warp once and hands every warp
    sharing its walk inputs the same rows, with its own masks."""

    ARCH = ArchitectureConfig.alu_scalar()

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_default_scale_matches_the_event_oracle(self, abbr):
        built = build_workload(abbr, "default")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(to_trace(trace), built.kernel.num_registers)
        ccols = classify_columnar_batch(trace, built.kernel.num_registers)
        assert_processed_identical(classified, ccols, self.ARCH, trace.warp_size)

    def test_one_walk_per_distinct_warp(self, walks):
        warps = distinct = 0
        for abbr in WORKLOAD_ABBRS:
            _, _, ccols = workload_case(abbr)
            before = len(walks)
            process_columns(ccols, self.ARCH)
            expected = distinct_walk_inputs(ccols)
            assert len(walks) - before == expected, abbr
            warps += len(ccols.warp_lengths)
            distinct += expected
        assert warps == 260
        assert len(walks) == distinct <= 48

    def test_shared_sequence_keeps_each_warps_masks(self, walks):
        # Every warp runs one sequence: a scalar write, then a branch
        # whose taken lanes (below warp + 1) overwrite the register on
        # both arms -- first a spill of the resident scalar, then a
        # plain partial write.  Only the masks differ between warps.
        b = KernelBuilder("warp_masks")
        tid = b.tid()
        lane = b.and_(tid, 31)
        value = b.mov(5)
        taken = b.setlt(lane, b.iadd(b.shr(tid, 5), 1))
        with b.if_(taken) as branch:
            value = b.mov(1, dst=value)
            with branch.else_():
                value = b.mov(2, dst=value)
        b.st_global(b.imad(tid, 4, 0x3000), value)
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(grid_dim=1, cta_dim=128), MemoryImage())
        classified = classify_trace(to_trace(trace), kernel.num_registers)
        ccols = classify_columnar_batch(trace, kernel.num_registers)
        pcols = assert_processed_identical(
            classified, ccols, self.ARCH, trace.warp_size
        )
        assert len(walks) == 1
        assert int(pcols.extra_instructions.sum()) == 4  # one spill per warp
        bounds = ccols.warp_bounds()
        rows = pcols.acc_offsets[bounds]
        kinds = [pcols.acc_kind_ids[lo:hi] for lo, hi in zip(rows, rows[1:])]
        masks = [pcols.acc_masks[lo:hi] for lo, hi in zip(rows, rows[1:])]
        for warp in range(4):
            assert np.array_equal(kinds[warp], kinds[0])
            taken_lanes = (1 << (warp + 1)) - 1
            assert masks[warp][kinds[warp] == PARTIAL_WRITE_ID].tolist() == [
                taken_lanes,
                0xFFFF_FFFF ^ taken_lanes,
            ]


def hand_written_columns(template, warps) -> ClassifiedColumns:
    """Classified columns of hand-written warps, each a list of rows
    ``(alu_scalar, dst, dst_is_scalar, mask, sources)``: a row with a
    mask other than the full warp is a divergent write.  Columns the
    scalar-RF walk does not read are zeros of ``template``'s dtypes."""
    rows = [row for warp in warps for row in warp]
    count = len(rows)
    sources = [register for row in rows for register in row[4]]
    arrays = {}
    for name in CLASSIFIED_ARRAY_FIELDS:
        dtype = getattr(template, name).dtype
        length = len(sources) if name.startswith("src_") else count
        arrays[name] = np.zeros(length, dtype=dtype)
    full = (1 << template.warp_size) - 1
    arrays.update(
        warp_lengths=np.array([len(warp) for warp in warps], dtype=np.int64),
        scalar_class_ids=np.array(
            [
                SCALAR_CLASS_TO_ID[
                    ScalarClass.ALU_SCALAR if row[0] else ScalarClass.NOT_ELIGIBLE
                ]
                for row in rows
            ],
            dtype=np.uint8,
        ),
        dst=np.array([row[1] for row in rows], dtype=np.int32),
        has_dst_enc=np.array([row[1] >= 0 for row in rows]),
        dst_is_scalar=np.array([row[2] for row in rows]),
        masks=np.array([row[3] for row in rows], dtype=np.uint64),
        divergent=np.array([row[3] != full for row in rows]),
        active_lanes=np.array([bin(row[3]).count("1") for row in rows], dtype=np.int32),
        src_offsets=np.cumsum([0] + [len(row[4]) for row in rows]).astype(np.int64),
        src_registers=np.array(sources, dtype=np.int32),
        addr_index=np.full(count, -1, dtype=np.int64),
        addresses=np.zeros((0, template.warp_size), dtype=np.uint32),
    )
    return ClassifiedColumns(warp_size=template.warp_size, **arrays)


class TestSplitWarpsWalkAlone:
    """A chunk's boundary-split warps resume and park their own
    register file, even where their rows equal an interior warp's."""

    def test_equal_split_warps_keep_their_own_walks(self, walks):
        _, _, template = workload_case("HS")
        # Three equal warps: an ALU-scalar read of r1 writing scalar
        # r2, then a divergent write of r1 under the warp's own mask.
        warps = [
            [(True, 2, True, 0xFFFF_FFFF, (1,)), (False, 1, False, mask, ())]
            for mask in (0x1, 0x3, 0x7)
        ]
        ccols = hand_written_columns(template, warps)
        carry = ArchCarry()
        resumed = ScalarRegisterFile()
        resumed.write_scalar(1)  # r1 was written scalar before the cut
        carry.scalar_rfs[40] = resumed
        made = len(walks)
        pcols = process_columns_chunk(
            ccols,
            ArchitectureConfig.alu_scalar(),
            carry,
            warp_start=40,
            first_warp_continued=True,
            last_warp_continues=True,
        )
        # The resumed warp reads r1 from the scalar RF, executes scalar
        # and spills r1 before its partial write; the fresh warps do not.
        assert pcols.scalar_executed.tolist() == [True, False, False, False, False, False]
        assert pcols.extra_instructions.tolist() == [0, 1, 0, 0, 0, 0]
        assert pcols.acc_kind_ids.tolist() == [
            SCALAR_RF_READ_ID, SCALAR_RF_WRITE_ID,
            SCALAR_RF_READ_ID, FULL_WRITE_ID, PARTIAL_WRITE_ID,
            FULL_READ_ID, SCALAR_RF_WRITE_ID, PARTIAL_WRITE_ID,
            FULL_READ_ID, SCALAR_RF_WRITE_ID, PARTIAL_WRITE_ID,
        ]
        partial = pcols.acc_kind_ids == PARTIAL_WRITE_ID
        assert pcols.acc_masks[partial].tolist() == [0x1, 0x3, 0x7]
        # Two fresh walks (the parked warp walks alone), and the parked
        # warp's register file waits for the next chunk.
        assert len(walks) - made == 2
        assert list(carry.scalar_rfs) == [42]
        assert carry.scalar_rfs[42].resident == {2}

class TestValidation:
    def test_bad_warp_size_rejected(self):
        trace, _, _ = workload_case("BP")
        ccols = classify_columnar_batch(
            trace, build_workload("BP", "small").kernel.num_registers
        )
        ccols.warp_size = 0
        with pytest.raises(ConfigError):
            process_columns(ccols, ArchitectureConfig.baseline())


class TestStaticCompress:
    """The fifth architecture: compile-time widths, no runtime detection."""

    ARCH = ArchitectureConfig.static_compress()

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_processed_columns_identical(self, abbr):
        trace, classified, ccols = workload_case(abbr)
        widths = static_widths_case(abbr)
        pcols = assert_processed_identical(
            classified, ccols, self.ARCH, trace.warp_size, static_widths=widths
        )
        # Statically compressed: no detection or compression hardware
        # ever runs, no sidecar rows exist, nothing executes scalar.
        assert int(pcols.compressor_ops.sum()) == 0
        assert int(pcols.extra_instructions.sum()) == 0
        assert not pcols.scalar_executed.any()
        assert not pcols.acc_sidecar.any()

    def test_narrow_registers_actually_compress(self):
        trace, classified, ccols = workload_case("BP")
        widths = static_widths_case("BP")
        assert any(enc > 0 for enc in widths)
        pcols = process_columns(ccols, self.ARCH, static_widths=widths)
        assert int(pcols.decompressor_ops.sum()) > 0

    @pytest.mark.parametrize("abbr", ("BP", "HS"))
    def test_downstream_timing_and_power_identical(self, abbr):
        trace, classified, ccols = workload_case(abbr)
        widths = static_widths_case(abbr)
        config = GpuConfig()
        processed, pcols = assert_lowering_identical(
            classified, ccols, self.ARCH, trace.warp_size, static_widths=widths
        )
        timing = simulate_architecture(
            processed, self.ARCH, config, trace.warp_size
        )
        accountant = PowerAccountant(self.ARCH, config=config)
        assert accountant.account_columns(pcols, timing) == account(
            accountant, processed, timing
        )

    def test_missing_widths_rejected_by_both_engines(self):
        trace, classified, ccols = workload_case("BP")
        with pytest.raises(ConfigError):
            process_columns(ccols, self.ARCH)
        with pytest.raises(ConfigError):
            process_classified(classified, self.ARCH, trace.warp_size)
