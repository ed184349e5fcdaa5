"""Unit tests for the columnar classified/processed containers."""

import numpy as np
import pytest

from repro.config import ArchitectureConfig
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import (
    CATEGORY_CODE_BY_OPCODE,
    CATEGORY_TO_CODE,
    CODE_TO_CATEGORY,
)
from repro.scalar.eligibility import ID_TO_SCALAR_CLASS, SCALAR_CLASS_TO_ID
from repro.simt import MemoryImage, run_kernel
from repro.workloads.registry import build_workload

from tests.conftest import run_one_warp
from tests.oracles import columns_from_classified
from tests.reference.classify import classify_trace
from tests.reference.columns import processed_columns_diff, processed_columns_equal
from tests.reference.interpret import process_classified, processed_columns_from_events
from tests.reference.trace import to_trace


@pytest.fixture(scope="module")
def bp_small():
    built = build_workload("BP", "small")
    columnar = run_kernel(built.kernel, built.launch, built.memory)
    trace = to_trace(columnar)
    classified = classify_trace(trace, built.kernel.num_registers)
    return trace, columnar, classified


class TestIdTables:
    def test_category_codes_round_trip(self):
        for category, code in CATEGORY_TO_CODE.items():
            assert CODE_TO_CATEGORY[code] is category

    def test_category_lut_matches_opcode_categories(self):
        from repro.isa.opcodes import category_of
        from repro.simt.trace import ID_TO_OPCODE

        for opcode_id, opcode in ID_TO_OPCODE.items():
            code = int(CATEGORY_CODE_BY_OPCODE[opcode_id])
            assert CODE_TO_CATEGORY[code] is category_of(opcode)

    def test_scalar_class_ids_round_trip(self):
        for cls, class_id in SCALAR_CLASS_TO_ID.items():
            assert ID_TO_SCALAR_CLASS[class_id] is cls


class TestClassifiedColumns:
    def test_from_classified_matches_event_stream(self, bp_small):
        trace, columnar, classified = bp_small
        cols = columns_from_classified(classified, trace.warp_size)
        events = [ev for warp in classified for ev in warp]
        assert cols.num_events == len(events)
        assert cols.warp_lengths.tolist() == [len(w) for w in classified]
        for index, ev in enumerate(events):
            assert int(cols.opcode_ids[index]) >= 0
            assert bool(cols.divergent[index]) == ev.divergent
            expected_dst = -1 if ev.event.dst is None else ev.event.dst
            assert int(cols.dst[index]) == expected_dst
            lo, hi = cols.src_offsets[index], cols.src_offsets[index + 1]
            assert hi - lo == len(ev.sources)
            for k, src in enumerate(ev.sources):
                assert int(cols.src_registers[lo + k]) == src.register
                assert bool(cols.src_divergent[lo + k]) == src.encoding.divergent

    def test_columnar_backed_equals_extracted(self, bp_small):
        trace, columnar, classified = bp_small
        extracted = columns_from_classified(classified, trace.warp_size)
        backed = classify_columnar_batch(
            columnar, build_workload("BP", "small").kernel.num_registers
        )
        assert np.array_equal(extracted.opcode_ids, backed.opcode_ids)
        assert np.array_equal(extracted.masks, backed.masks)
        assert np.array_equal(extracted.src_offsets, backed.src_offsets)
        assert np.array_equal(extracted.src_registers, backed.src_registers)
        assert np.array_equal(extracted.dst, backed.dst)

    def test_warp_bounds_tile_the_stream(self, bp_small):
        _, columnar, _ = bp_small
        cols = classify_columnar_batch(
            columnar, build_workload("BP", "small").kernel.num_registers
        )
        bounds = cols.warp_bounds()
        assert bounds[0] == 0
        assert bounds[-1] == cols.num_events
        assert np.array_equal(np.diff(bounds), cols.warp_lengths)


class TestProcessedColumns:
    def _processed(self, kernel, arch):
        trace = to_trace(run_one_warp(kernel, MemoryImage()))
        classified = classify_trace(trace, kernel.num_registers)
        processed = process_classified(classified, arch, trace.warp_size)
        return processed_columns_from_events(processed, trace.warp_size)

    def test_from_events_shapes(self, divergent_kernel):
        cols = self._processed(divergent_kernel, ArchitectureConfig.gscalar())
        n = cols.opcode_ids.shape[0]
        assert cols.acc_offsets.shape == (n + 1,)
        assert cols.acc_offsets[-1] == cols.acc_kind_ids.shape[0]
        assert cols.exec_lanes.min() >= 0

    def test_equal_and_diff_helpers(self, scalar_heavy_kernel):
        arch = ArchitectureConfig.gscalar()
        a = self._processed(scalar_heavy_kernel, arch)
        b = self._processed(scalar_heavy_kernel, arch)
        assert processed_columns_equal(a, b)
        assert processed_columns_diff(a, b) == []
        b.exec_lanes[0] += 1
        assert not processed_columns_equal(a, b)
        assert "exec_lanes" in processed_columns_diff(a, b)

    def test_architectures_differ_in_columns(self, scalar_heavy_kernel):
        base = self._processed(scalar_heavy_kernel, ArchitectureConfig.baseline())
        gsc = self._processed(scalar_heavy_kernel, ArchitectureConfig.gscalar())
        assert not base.scalar_executed.any()
        assert gsc.scalar_executed.any()
        assert gsc.exec_lanes.sum() < base.exec_lanes.sum()
