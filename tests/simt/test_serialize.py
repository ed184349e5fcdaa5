"""Round-trip tests for v5 trace serialization."""

import numpy as np

from repro.simt import MemoryImage
from repro.simt.serialize import load_columnar_v5, save_columnar_v5
from repro.simt.trace import ColumnarTrace, KernelTrace

from tests.conftest import run_one_warp

FINGERPRINT = "deadbeef00000000"


def assert_traces_equal(a, b):
    assert a.kernel_name == b.kernel_name
    assert a.warp_size == b.warp_size
    assert len(a.warps) == len(b.warps)
    for warp_a, warp_b in zip(a.warps, b.warps):
        assert warp_a.warp_id == warp_b.warp_id
        assert len(warp_a) == len(warp_b)
        for ev_a, ev_b in zip(warp_a.events, warp_b.events):
            assert ev_a.opcode is ev_b.opcode
            assert ev_a.dst == ev_b.dst
            assert ev_a.src_regs == ev_b.src_regs
            assert ev_a.active_mask == ev_b.active_mask
            assert ev_a.block_id == ev_b.block_id
            assert ev_a.varying_special_src == ev_b.varying_special_src
            assert ev_a.scalar_nonreg_srcs == ev_b.scalar_nonreg_srcs
            if ev_a.dst_values is None:
                assert ev_b.dst_values is None
            else:
                assert np.array_equal(ev_a.dst_values, ev_b.dst_values)
            if ev_a.addresses is None:
                assert ev_b.addresses is None
            else:
                assert np.array_equal(ev_a.addresses, ev_b.addresses)


def round_trip(trace, cache_dir):
    """Save ``trace`` as a v5 entry and load its event form back."""
    save_columnar_v5(trace.to_columnar(), cache_dir, "trace", FINGERPRINT)
    columnar, status, _ = load_columnar_v5(cache_dir, "trace", FINGERPRINT)
    assert status == "hit"
    return columnar.to_trace()


class TestRoundTrip:
    def test_divergent_trace(self, divergent_kernel, tmp_path):
        trace = run_one_warp(divergent_kernel, MemoryImage(), cta=64)
        assert_traces_equal(trace, round_trip(trace, tmp_path))

    def test_memory_trace(self, saxpy_kernel, simple_memory, tmp_path):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        assert_traces_equal(trace, round_trip(trace, tmp_path))

    def test_empty_trace(self, tmp_path):
        trace = KernelTrace(kernel_name="empty", warp_size=32)
        assert round_trip(trace, tmp_path).total_instructions == 0

    def test_downstream_results_identical(self, divergent_kernel, tmp_path):
        """A reloaded trace must classify identically."""
        from repro.scalar import classify_columnar_batch, trace_statistics

        trace = run_one_warp(divergent_kernel, MemoryImage())
        reloaded = round_trip(trace, tmp_path)
        original = trace_statistics(
            classify_columnar_batch(
                trace.to_columnar(), divergent_kernel.num_registers
            )
        )
        recovered = trace_statistics(
            classify_columnar_batch(
                reloaded.to_columnar(), divergent_kernel.num_registers
            )
        )
        assert original.class_counts == recovered.class_counts

    def test_workload_trace_round_trip(self, tmp_path):
        from repro.simt.executor import run_kernel
        from repro.workloads.registry import build_workload

        built = build_workload("HS", scale="tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        assert_traces_equal(trace, round_trip(trace, tmp_path))
        assert any(path.stat().st_size > 0 for path in tmp_path.rglob("*.npy"))


class TestFingerprint:
    def test_matching_fingerprint_round_trips(self, saxpy_kernel, tmp_path):
        trace = run_one_warp(saxpy_kernel, MemoryImage())
        save_columnar_v5(trace.to_columnar(), tmp_path, "trace", FINGERPRINT)
        loaded, status, entry = load_columnar_v5(tmp_path, "trace", FINGERPRINT)
        assert status == "hit"
        assert isinstance(loaded, ColumnarTrace)
        assert entry.bytes_mapped > 0
        assert_traces_equal(trace, loaded.to_trace())

    def test_no_expected_fingerprint_skips_check(self, saxpy_kernel, tmp_path):
        trace = run_one_warp(saxpy_kernel, MemoryImage())
        save_columnar_v5(trace.to_columnar(), tmp_path, "trace", FINGERPRINT)
        loaded, status, _ = load_columnar_v5(tmp_path, "trace")
        assert status == "hit"
        assert_traces_equal(trace, loaded.to_trace())

    def test_mismatched_fingerprint_raises(self, saxpy_kernel, tmp_path):
        """A stale entry is reported, never handed back as a hit."""
        trace = run_one_warp(saxpy_kernel, MemoryImage())
        save_columnar_v5(trace.to_columnar(), tmp_path, "trace", FINGERPRINT)
        assert load_columnar_v5(tmp_path, "trace", "0123456789abcdef") == (
            None, "stale", None,
        )


class TestCorruption:
    """A damaged entry loads as ``corrupt`` instead of raising, so the
    runner re-executes the trace rather than aborting the run."""

    def test_garbage_file_raises_trace_error(self, tmp_path):
        (tmp_path / "trace.v5.json").write_bytes(b"this is not a manifest at all")
        assert load_columnar_v5(tmp_path, "trace", FINGERPRINT) == (
            None, "corrupt", None,
        )

    def test_truncated_archive_raises_trace_error(self, saxpy_kernel, tmp_path):
        from repro.experiments import store

        trace = run_one_warp(saxpy_kernel, MemoryImage())
        save_columnar_v5(trace.to_columnar(), tmp_path, "trace", FINGERPRINT)
        bank = tmp_path / store.bank_dir_name("trace", FINGERPRINT) / "values.npy"
        data = bank.read_bytes()
        bank.write_bytes(data[: len(data) // 2])
        assert load_columnar_v5(tmp_path, "trace", FINGERPRINT) == (
            None, "corrupt", None,
        )

    def test_empty_file_raises_trace_error(self, tmp_path):
        (tmp_path / "trace.v5.json").write_bytes(b"")
        assert load_columnar_v5(tmp_path, "trace", FINGERPRINT) == (
            None, "corrupt", None,
        )

    def test_wrong_version_raises_trace_error(self, saxpy_kernel, tmp_path):
        from unittest import mock

        from repro.simt import serialize

        trace = run_one_warp(saxpy_kernel, MemoryImage())
        with mock.patch.object(serialize, "_FORMAT_VERSION", 999):
            save_columnar_v5(trace.to_columnar(), tmp_path, "trace", FINGERPRINT)
        assert load_columnar_v5(tmp_path, "trace", FINGERPRINT) == (
            None, "corrupt", None,
        )
