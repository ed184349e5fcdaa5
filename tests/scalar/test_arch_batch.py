"""Differential tests: vectorized architecture interpretation vs events.

The batch engine (:mod:`repro.scalar.arch_batch`) must be *bit-identical*
to the per-event :class:`~repro.scalar.architectures.ArchitectureView` —
same per-event scalar/half/exec-lane columns, same RF-access stream,
same lowered timing ops and the same power report — on every workload
and every evaluated architecture.  These tests pin that contract at
each pipeline layer.
"""

import pytest

from repro.config import EVALUATED_ARCHITECTURES, ArchitectureConfig, GpuConfig
from repro.errors import ConfigError
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.architectures import process_classified
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import (
    CTRL_CODE,
    ProcessedColumns,
    processed_columns_diff,
)
from repro.scalar.compiler import MoveElisionAnalysis
from repro.scalar.tracker import classify_trace
from repro.simt import MemoryImage, run_kernel
from repro.experiments.runner import matrix_architectures
from repro.timing.gpu import lower_to_timing_ops, simulate_architecture
from repro.timing.ops import build_timing_ops_columns
from repro.analysis.static_.widths import analyze_widths
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp

ARCH_IDS = [arch.name for arch in EVALUATED_ARCHITECTURES]
WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]

_CASE_CACHE: dict[str, tuple] = {}
_WIDTHS_CACHE: dict[str, tuple[int, ...]] = {}


def workload_case(abbr: str):
    """Trace, tracker stream and classified columns for one small-scale
    workload."""
    if abbr not in _CASE_CACHE:
        built = build_workload(abbr, "small")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(trace, built.kernel.num_registers)
        ccols = classify_columnar_batch(
            trace.to_columnar(), built.kernel.num_registers
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
    expected = ProcessedColumns.from_events(
        process_classified(classified, arch, warp_size, **kwargs),
        warp_size,
    )
    actual = process_columns(ccols, arch, **kwargs)
    assert processed_columns_diff(expected, actual) == []
    return actual


class TestWorkloadMatrix:
    """Exact array equality on all 17 workloads x all 4 architectures."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    @pytest.mark.parametrize("arch", EVALUATED_ARCHITECTURES, ids=ARCH_IDS)
    def test_processed_columns_identical(self, abbr, arch):
        trace, classified, ccols = workload_case(abbr)
        assert_processed_identical(classified, ccols, arch, trace.warp_size)


def assert_lowering_identical(classified, ccols, arch, warp_size, **kwargs):
    """The op table of the columns holds the event path's op streams."""
    config = GpuConfig()
    processed = process_classified(classified, arch, warp_size, **kwargs)
    pcols = process_columns(ccols, arch, **kwargs)
    assert build_timing_ops_columns(
        ccols, pcols, arch, config
    ).to_ops() == lower_to_timing_ops(processed, arch, config, warp_size)
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
        assert accountant.account_columns(pcols, timing) == accountant.account(
            processed, timing
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
        classified = classify_trace(trace, built.kernel.num_registers)
        ccols = classify_columnar_batch(
            trace.to_columnar(), built.kernel.num_registers
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
        classified = classify_trace(trace, divergent_kernel.num_registers)
        ccols = classify_columnar_batch(
            trace.to_columnar(), divergent_kernel.num_registers
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
        classified = classify_trace(trace, kernel.num_registers)
        ccols = classify_columnar_batch(trace.to_columnar(), kernel.num_registers)
        assert_processed_identical(
            classified, ccols, ArchitectureConfig.alu_scalar(), trace.warp_size
        )


class TestValidation:
    def test_bad_warp_size_rejected(self):
        trace, _, _ = workload_case("BP")
        ccols = classify_columnar_batch(
            trace.to_columnar(), build_workload("BP", "small").kernel.num_registers
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
        assert accountant.account_columns(pcols, timing) == accountant.account(
            processed, timing
        )

    def test_missing_widths_rejected_by_both_engines(self):
        trace, classified, ccols = workload_case("BP")
        with pytest.raises(ConfigError):
            process_columns(ccols, self.ARCH)
        with pytest.raises(ConfigError):
            process_classified(classified, self.ARCH, trace.warp_size)
