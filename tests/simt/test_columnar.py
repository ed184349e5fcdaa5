"""Tests for the columnar trace form and its v5 on-disk entry.

Covers the lossless ``to_columnar``/``from_columnar`` round trip, the
v5 trace entry (version gate, fingerprint gate, inconsistent warp
lengths), and the experiment runner's transparent recovery: a cache
entry written by an older format version is silently re-executed, never
re-interpreted.
"""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.simt.serialize import (
    _ARRAY_FIELDS,
    _FORMAT_VERSION,
    load_columnar_v5,
    save_columnar_v5,
)
from repro.simt.trace import ColumnarTrace, KernelTrace

from tests.conftest import run_one_warp
from tests.simt.test_serialize import assert_traces_equal


def _multi_warp_trace(kernel, memory=None):
    memory = memory or MemoryImage()
    return run_kernel(kernel, LaunchConfig(grid_dim=2, cta_dim=64), memory)


class TestColumnarRoundTrip:
    def test_divergent_multi_warp(self, divergent_kernel):
        trace = _multi_warp_trace(divergent_kernel)
        assert_traces_equal(trace, KernelTrace.from_columnar(trace.to_columnar()))

    def test_memory_trace_keeps_addresses(self, saxpy_kernel, simple_memory):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        columnar = trace.to_columnar()
        assert columnar.addresses.shape[1] == trace.warp_size
        assert np.any(columnar.addr_index >= 0)
        assert_traces_equal(trace, columnar.to_trace())

    def test_empty_trace(self):
        trace = KernelTrace(kernel_name="empty", warp_size=32)
        columnar = trace.to_columnar()
        assert columnar.num_events == 0
        assert columnar.values.shape == (0, 32)
        assert columnar.to_trace().total_instructions == 0

    def test_counts_and_slices(self, loop_kernel):
        trace = _multi_warp_trace(loop_kernel)
        columnar = trace.to_columnar()
        assert columnar.total_instructions == trace.total_instructions
        assert columnar.num_warps == len(trace.warps)
        slices = columnar.warp_slices()
        for (warp_id, segment), warp in zip(slices, trace.warps):
            assert warp_id == warp.warp_id
            assert segment.stop - segment.start == len(warp)
        assert slices[-1][1].stop == columnar.num_events

    def test_inconsistent_lengths_rejected(self, loop_kernel):
        columnar = run_one_warp(loop_kernel).to_columnar()
        columnar.warp_lengths = columnar.warp_lengths + 1
        with pytest.raises(TraceError, match="warp lengths"):
            columnar.to_trace()


class TestColumnarSerialization:
    def test_save_load_columnar(self, divergent_kernel, tmp_path):
        trace = _multi_warp_trace(divergent_kernel)
        columnar = trace.to_columnar()
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
        assert_traces_equal(trace, loaded.to_trace())

    def test_save_trace_load_trace_symmetry(self, saxpy_kernel, simple_memory, tmp_path):
        trace = run_one_warp(saxpy_kernel, simple_memory)
        save_columnar_v5(trace.to_columnar(), tmp_path, "trace", "fp-1")
        loaded, status, _ = load_columnar_v5(tmp_path, "trace", "fp-1")
        assert status == "hit"
        assert_traces_equal(trace, loaded.to_trace())

    def test_stale_fingerprint_rejected(self, loop_kernel, tmp_path):
        columnar = run_one_warp(loop_kernel).to_columnar()
        save_columnar_v5(columnar, tmp_path, "trace", "fp-old")
        assert load_columnar_v5(tmp_path, "trace", "fp-new") == (None, "stale", None)

    def test_legacy_version_rejected(self, loop_kernel, tmp_path):
        columnar = run_one_warp(loop_kernel).to_columnar()
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
        columnar = run_one_warp(loop_kernel).to_columnar()
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
