"""Tests for the columnar trace form and its v5 on-disk entry.

Covers the executor's columnar output against the event-form round
trip (``from_trace(to_trace(columnar))`` equals what
``run_kernel`` wrote, array for array, dtypes included), the v5 trace
entry (version gate, fingerprint gate, inconsistent warp lengths), and
the experiment runner's transparent recovery: a cache entry written by
an older format version is silently re-executed, never re-interpreted.
"""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.isa import KernelBuilder
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.simt.serialize import (
    _ARRAY_FIELDS,
    _FORMAT_VERSION,
    load_columnar_v5,
    save_columnar_v5,
)
from repro.simt.trace import ColumnarTrace
from repro.workloads.registry import all_workloads, build_workload

from tests.conftest import run_one_warp
from tests.reference.trace import KernelTrace, from_trace, to_trace
from tests.simt.test_barrier import cta_reduction_kernel
from tests.simt.test_serialize import assert_traces_equal


def _multi_warp_trace(kernel, memory=None):
    memory = memory or MemoryImage()
    return run_kernel(kernel, LaunchConfig(grid_dim=2, cta_dim=64), memory)


def assert_columnar_identical(expected: ColumnarTrace, actual: ColumnarTrace):
    """Array-for-array equality: dtype, shape and values of every field."""
    assert actual.kernel_name == expected.kernel_name
    assert actual.warp_size == expected.warp_size
    for name in _ARRAY_FIELDS:
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def assert_round_trips(columnar: ColumnarTrace):
    """The event form of an executor trace packs back to the same arrays."""
    assert_columnar_identical(columnar, from_trace(to_trace(columnar)))


class TestColumnarRoundTrip:
    def test_divergent_multi_warp(self, divergent_kernel):
        columnar = _multi_warp_trace(divergent_kernel)
        assert np.any(columnar.masks != np.uint64(0xFFFFFFFF))
        assert_round_trips(columnar)

    def test_memory_trace_keeps_addresses(self, saxpy_kernel, simple_memory):
        columnar = run_one_warp(saxpy_kernel, simple_memory)
        assert columnar.addresses.shape[1] == columnar.warp_size
        assert np.any(columnar.addr_index >= 0)
        assert_round_trips(columnar)

    def test_barrier_multi_cta(self):
        memory = MemoryImage()
        memory.bind_array(0x1000, np.arange(256, dtype=np.uint32))
        columnar = run_kernel(
            cta_reduction_kernel(128), LaunchConfig(grid_dim=2, cta_dim=128), memory
        )
        assert columnar.num_warps == 8
        assert_round_trips(columnar)

    def test_empty_trace(self):
        trace = KernelTrace(kernel_name="empty", warp_size=32)
        columnar = from_trace(trace)
        assert columnar.num_events == 0
        assert columnar.values.shape == (0, 32)
        assert to_trace(columnar).total_instructions == 0

    def test_executor_empty_trace(self):
        columnar = run_one_warp(KernelBuilder("empty").finish())
        assert columnar.num_events == 0
        assert columnar.warp_lengths.tolist() == [0]
        assert columnar.values.shape == (0, 32)
        assert columnar.addresses.shape == (0, 32)
        assert_round_trips(columnar)

    def test_counts_and_slices(self, loop_kernel):
        columnar = _multi_warp_trace(loop_kernel)
        trace = to_trace(columnar)
        assert columnar.total_instructions == trace.total_instructions
        assert columnar.num_warps == len(trace.warps)
        slices = columnar.warp_slices()
        for (warp_id, segment), warp in zip(slices, trace.warps):
            assert warp_id == warp.warp_id
            assert segment.stop - segment.start == len(warp)
        assert slices[-1][1].stop == columnar.num_events

    def test_inconsistent_lengths_rejected(self, loop_kernel):
        columnar = run_one_warp(loop_kernel)
        columnar.warp_lengths = columnar.warp_lengths + 1
        with pytest.raises(TraceError, match="warp lengths"):
            to_trace(columnar)


@pytest.mark.parametrize("warp_size", [32, 64])
@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_workload_round_trip(abbr, warp_size):
    """Every tiny workload's executor trace survives the event form."""
    built = build_workload(abbr, "tiny")
    columnar = run_kernel(
        built.kernel, built.launch, built.memory, warp_size=warp_size
    )
    assert columnar.warp_size == warp_size
    assert_round_trips(columnar)


class TestColumnarSerialization:
    def test_save_load_columnar(self, divergent_kernel, tmp_path):
        columnar = _multi_warp_trace(divergent_kernel)
        save_columnar_v5(columnar, tmp_path, "trace", "fp-1")
        loaded, status, _ = load_columnar_v5(tmp_path, "trace", "fp-1")
        assert status == "hit"
        assert isinstance(loaded, ColumnarTrace)
        assert loaded.kernel_name == columnar.kernel_name
        assert loaded.warp_size == columnar.warp_size
        for name in _ARRAY_FIELDS:
            assert np.array_equal(
                getattr(loaded, name), getattr(columnar, name)
            ), name
        assert_traces_equal(to_trace(columnar), to_trace(loaded))

    def test_save_trace_load_trace_symmetry(self, saxpy_kernel, simple_memory, tmp_path):
        columnar = run_one_warp(saxpy_kernel, simple_memory)
        save_columnar_v5(columnar, tmp_path, "trace", "fp-1")
        loaded, status, _ = load_columnar_v5(tmp_path, "trace", "fp-1")
        assert status == "hit"
        assert_traces_equal(to_trace(columnar), to_trace(loaded))

    def test_stale_fingerprint_rejected(self, loop_kernel, tmp_path):
        columnar = run_one_warp(loop_kernel)
        save_columnar_v5(columnar, tmp_path, "trace", "fp-old")
        assert load_columnar_v5(tmp_path, "trace", "fp-new") == (None, "stale", None)

    def test_legacy_version_rejected(self, loop_kernel, tmp_path):
        columnar = run_one_warp(loop_kernel)
        save_columnar_v5(columnar, tmp_path, "trace", "fp-1")
        manifest = tmp_path / "trace.v5.json"
        doc = json.loads(manifest.read_text())
        doc["meta"]["format_version"] = _FORMAT_VERSION - 1
        manifest.write_text(json.dumps(doc))
        assert load_columnar_v5(tmp_path, "trace", "fp-1") == (None, "corrupt", None)

    def test_corrupt_file_rejected(self, tmp_path):
        (tmp_path / "trace.v5.json").write_bytes(b"not a v5 manifest at all")
        assert load_columnar_v5(tmp_path, "trace", "fp-1") == (None, "corrupt", None)

    def test_truncated_arrays_rejected(self, loop_kernel, tmp_path):
        columnar = run_one_warp(loop_kernel)
        columnar.warp_lengths = columnar.warp_lengths + 5
        save_columnar_v5(columnar, tmp_path, "trace", "fp-1")
        assert load_columnar_v5(tmp_path, "trace", "fp-1") == (None, "corrupt", None)


class TestRunnerCacheRecovery:
    def test_stale_format_version_reexecuted(self, tmp_path):
        """A cache entry from an older format version is transparently
        re-executed and overwritten, with identical downstream results."""
        from repro.experiments.runner import ExperimentRunner
        from repro.scalar.tracker import trace_statistics

        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        baseline_stats = trace_statistics(cold.classified_columns("BP"))
        assert cold.stats.counters["trace_executions"] == 1

        manifests = [
            path
            for path in tmp_path.glob("*.v5.json")
            if "_ccols" not in path.name
        ]
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        doc["meta"]["format_version"] = _FORMAT_VERSION - 1
        manifests[0].write_text(json.dumps(doc))
        # Classify the re-executed trace again rather than replay.
        for derived in tmp_path.glob("*_ccols.v5.json"):
            derived.unlink()

        recovered = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        stats = trace_statistics(recovered.classified_columns("BP"))
        counters = recovered.stats.counters
        assert counters["trace_cache_invalid"] == 1
        assert counters["trace_executions"] == 1
        assert stats == baseline_stats

        # The overwritten entry is a clean v5 entry: a third runner hits.
        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert trace_statistics(warm.classified_columns("BP")) == baseline_stats
        assert warm.stats.counters["trace_cache_hits"] == 1
        assert warm.stats.counters.get("trace_executions", 0) == 0
