"""Differential gate: chunk-streaming pipeline vs the whole-trace engines.

:func:`repro.experiments.streaming.stream_pipeline` must end, for any
chunk size, at exactly the whole-trace SM input and power reduction:
each architecture's joined op table equals the whole-trace lowering
column for column and by digest, and its merged power aggregates equal
the whole-trace reduction.  The chunk-level classifier and interpreter
fragments reassemble to the whole-trace classified and processed
columns.  These tests pin that contract across every workload and
architecture (where each streamed table is also simulated once and its
aggregates evaluated, against the whole-trace timing and power), at
the chunk-grid edge cases (size 1, one chunk, the exact length, the
empty trace), and under hypothesis-drawn random chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import GpuConfig
from repro.experiments.runner import matrix_architectures
from repro.experiments.streaming import _array_bytes, stream_pipeline
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import ArchCarry, process_columns, process_columns_chunk
from repro.scalar.batch import (
    ClassifierCarry,
    classify_columnar_batch,
    classify_columnar_chunk,
)
from repro.scalar.columns import CLASSIFIED_ARRAY_FIELDS, ClassifiedColumns
from repro.simt import run_kernel
from repro.simt.trace import iter_chunks
from repro.timing.gpu import simulate_architecture_columns, simulate_warp_ops
from repro.timing.ops import build_timing_ops_columns
from repro.workloads.registry import all_workloads, build_workload

from tests.oracles import columns_from_classified
from tests.reference.classify import classify_trace
from tests.reference.columns import (
    assert_tables_identical,
    concat_classified_columns,
    concat_processed_columns,
    processed_columns_equal,
)
from tests.reference.trace import to_trace

ARCHES = matrix_architectures()
WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]

_CASE_CACHE: dict[str, dict] = {}


def whole_reference(ccols: ClassifiedColumns, static_widths: dict, config) -> dict:
    """Per architecture: the whole-trace processed columns, op table and
    power aggregates of one classified stream."""
    reference = {}
    for arch in ARCHES:
        pcols = process_columns(ccols, arch, static_widths=static_widths[arch.name])
        reference[arch.name] = {
            "pcols": pcols,
            "table": build_timing_ops_columns(ccols, pcols, arch, config),
            "aggregates": PowerAccountant(arch, config=config).aggregates_from_columns(
                pcols
            ),
        }
    return reference


def workload_case(abbr: str) -> dict:
    """Tiny-scale trace plus the whole-trace reference per architecture."""
    if abbr not in _CASE_CACHE:
        built = build_workload(abbr, "tiny")
        columnar = run_kernel(built.kernel, built.launch, built.memory)
        trace = to_trace(columnar)
        config = GpuConfig()
        widths = analyze_widths(built.kernel, warp_size=trace.warp_size).register_enc
        static_widths = {
            arch.name: (widths if arch.static_compression else None)
            for arch in ARCHES
        }
        # The whole-trace reference is the tracker oracle's stream, so
        # the matrix pins chunked classification to it.
        ccols = columns_from_classified(
            classify_trace(trace, built.kernel.num_registers),
            trace.warp_size,
            columnar=columnar,
        )
        _CASE_CACHE[abbr] = {
            "built": built,
            "columnar": columnar,
            "config": config,
            "warps_per_cta": built.launch.warps_per_cta(trace.warp_size),
            "static_widths": static_widths,
            "ccols": ccols,
            "reference": whole_reference(ccols, static_widths, config),
        }
    return _CASE_CACHE[abbr]


def assert_classified_identical(expected: ClassifiedColumns, actual: ClassifiedColumns):
    assert actual.warp_size == expected.warp_size
    for name in CLASSIFIED_ARRAY_FIELDS:
        assert np.array_equal(
            getattr(expected, name), getattr(actual, name)
        ), f"classified column {name} differs"


def stream(case: dict, columnar, chunk_events: int):
    return stream_pipeline(
        iter_chunks(columnar, chunk_events),
        ARCHES,
        case["built"].kernel.num_registers,
        config=case["config"],
        static_widths=case["static_widths"],
    )


def chunk_fragments(case: dict, chunk_events: int):
    """Every chunk's classified and per-architecture processed fragment,
    from the chunk-level engines over the same grid."""
    classifier_carry = ClassifierCarry()
    arch_carries = {arch.name: ArchCarry() for arch in ARCHES}
    ccols_fragments: list[ClassifiedColumns] = []
    continued: list[bool] = []
    pcols_fragments: dict[str, list] = {arch.name: [] for arch in ARCHES}
    for chunk in iter_chunks(case["columnar"], chunk_events):
        ccols = classify_columnar_chunk(
            chunk, case["built"].kernel.num_registers, classifier_carry
        )
        ccols_fragments.append(ccols)
        continued.append(chunk.first_warp_continued)
        for arch in ARCHES:
            pcols_fragments[arch.name].append(
                process_columns_chunk(
                    ccols,
                    arch,
                    arch_carries[arch.name],
                    warp_start=chunk.warp_start,
                    first_warp_continued=chunk.first_warp_continued,
                    last_warp_continues=chunk.last_warp_continues,
                    static_widths=case["static_widths"][arch.name],
                )
            )
    return ccols_fragments, continued, pcols_fragments


def assert_outcome_matches(outcome, reference: dict):
    """Each streamed table and aggregate set equals the whole-trace one."""
    for arch in ARCHES:
        expected = reference[arch.name]
        table = outcome.tables[arch.name]
        assert_tables_identical(expected["table"], table)
        assert table.digest() == expected["table"].digest(), arch.name
        assert outcome.aggregates[arch.name] == expected["aggregates"], arch.name


def assert_stream_matches_whole(case: dict, chunk_events: int):
    outcome = stream(case, case["columnar"], chunk_events)
    assert outcome.num_events == case["columnar"].num_events
    assert_outcome_matches(outcome, case["reference"])

    ccols_fragments, continued, pcols_fragments = chunk_fragments(case, chunk_events)
    assert outcome.num_chunks == len(continued)
    assert_classified_identical(
        case["ccols"], concat_classified_columns(ccols_fragments, continued)
    )
    for arch in ARCHES:
        assert processed_columns_equal(
            case["reference"][arch.name]["pcols"],
            concat_processed_columns(pcols_fragments[arch.name], continued),
        ), f"processed columns differ on {arch.name}"
    return outcome


class TestWorkloadMatrix:
    """All 17 workloads x all 5 architectures, warp-splitting chunk size."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_chunked_identical(self, abbr):
        case = workload_case(abbr)
        # A prime chunk size guarantees warps get split mid-stream.
        outcome = assert_stream_matches_whole(case, 7)
        # One simulation of each streamed table and one evaluation of
        # its aggregates give the whole-trace timing and power.
        config, warps_per_cta = case["config"], case["warps_per_cta"]
        for arch in ARCHES:
            pcols = case["reference"][arch.name]["pcols"]
            timing = simulate_warp_ops(
                outcome.tables[arch.name], arch, config, warps_per_cta=warps_per_cta
            )
            assert timing == simulate_architecture_columns(
                case["ccols"], pcols, arch, config, warps_per_cta=warps_per_cta
            ), arch.name
            accountant = PowerAccountant(arch, config=config)
            power = accountant.account_aggregates(outcome.aggregates[arch.name], timing)
            assert power == accountant.account_columns(pcols, timing), arch.name


class TestChunkEdgeCases:
    def test_chunk_size_one(self):
        case = workload_case("HS")
        outcome = assert_stream_matches_whole(case, 1)
        assert outcome.num_chunks == case["columnar"].num_events

    def test_chunk_covers_whole_trace(self):
        case = workload_case("HS")
        outcome = assert_stream_matches_whole(
            case, case["columnar"].num_events + 100
        )
        assert outcome.num_chunks == 1

    def test_chunk_exactly_trace_length(self):
        case = workload_case("BT")
        outcome = assert_stream_matches_whole(case, case["columnar"].num_events)
        assert outcome.num_chunks == 1

    def test_empty_trace(self):
        case = workload_case("HS")
        empty = case["columnar"].slice_events(0, 0)
        assert empty.num_events == 0
        chunks = list(iter_chunks(empty, 8))
        assert len(chunks) == 1  # one empty chunk, not zero chunks
        assert chunks[0].num_events == 0
        assert not chunks[0].first_warp_continued
        assert not chunks[0].last_warp_continues

        outcome = stream(case, empty, 8)
        assert outcome.num_events == 0
        assert outcome.num_chunks == 1
        ccols = classify_columnar_batch(empty, case["built"].kernel.num_registers)
        assert_outcome_matches(
            outcome, whole_reference(ccols, case["static_widths"], case["config"])
        )
        for arch in ARCHES:
            assert outcome.tables[arch.name].num_ops == 0
            assert outcome.aggregates[arch.name].instructions == 0

    def test_live_set_stays_below_the_whole_trace(self):
        # Chunks far smaller than the trace: the pipeline's peak live
        # set (one chunk through every stage) stays below the whole
        # trace plus its classified columns.
        case = workload_case("HS")
        outcome = stream(case, case["columnar"], 4)
        ccols = classify_columnar_batch(
            case["columnar"], case["built"].kernel.num_registers
        )
        whole = _array_bytes(case["columnar"]) + _array_bytes(ccols)
        assert 0 < outcome.peak_bytes_in_flight < whole


class TestRandomChunkGrids:
    """Any chunk size reproduces the tables, aggregates and fragments."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_chunk_size_bit_identical(self, data):
        case = workload_case("HS")
        num_events = case["columnar"].num_events
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=num_events + 3)
        )
        assert_stream_matches_whole(case, chunk_events)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_chunk_size_divergent_workload(self, data):
        case = workload_case("BP")
        num_events = case["columnar"].num_events
        chunk_events = data.draw(
            st.integers(min_value=1, max_value=num_events + 3)
        )
        assert_stream_matches_whole(case, chunk_events)
