"""Differential gate: chunk-streaming pipeline vs the whole-trace engines.

:func:`repro.experiments.streaming.stream_pipeline` must end, for any
chunk size, at exactly the whole-trace SM input and power reduction:
each architecture's joined op table equals the whole-trace lowering
column for column and by digest, and its merged power aggregates equal
the whole-trace reduction.  The classified and processed fragments of
the chunks reassemble to the whole-trace classified and processed
columns.  These tests pin that contract across every workload and
architecture (where each streamed table is also simulated once and its
aggregates evaluated, against the whole-trace timing and power), at
the chunk-grid edge cases (size 1, one chunk, the exact length, the
empty trace), and under hypothesis-drawn random chunk sizes.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.runner import matrix_architectures, paper_architectures
from repro.experiments.streaming import _array_bytes, stream_pipeline
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
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
    from the whole-trace engines run on each chunk of the same grid."""
    ccols_fragments: list[ClassifiedColumns] = []
    pcols_fragments: dict[str, list] = {arch.name: [] for arch in ARCHES}
    for chunk in iter_chunks(case["columnar"], chunk_events):
        ccols = classify_columnar_batch(
            chunk.columnar, case["built"].kernel.num_registers
        )
        ccols_fragments.append(ccols)
        for arch in ARCHES:
            pcols_fragments[arch.name].append(
                process_columns(
                    ccols, arch, static_widths=case["static_widths"][arch.name]
                )
            )
    return ccols_fragments, pcols_fragments


def assert_outcome_matches(outcome, reference: dict) -> dict:
    """Each streamed table and aggregate set equals the whole-trace one.

    Joins every architecture's table (which releases its fragments) and
    returns the joined tables by architecture name.
    """
    tables = {}
    for arch in ARCHES:
        expected = reference[arch.name]
        table = tables[arch.name] = outcome.join(arch.name)
        assert_tables_identical(expected["table"], table)
        assert table.digest() == expected["table"].digest(), arch.name
        assert outcome.aggregates[arch.name] == expected["aggregates"], arch.name
    return tables


def assert_stream_matches_whole(case: dict, chunk_events: int):
    """The stream's outcome matches the whole trace's; returns the
    outcome and its joined tables."""
    outcome = stream(case, case["columnar"], chunk_events)
    assert outcome.num_events == case["columnar"].num_events
    tables = assert_outcome_matches(outcome, case["reference"])

    ccols_fragments, pcols_fragments = chunk_fragments(case, chunk_events)
    assert outcome.num_chunks == len(ccols_fragments)
    assert_classified_identical(
        case["ccols"], concat_classified_columns(ccols_fragments)
    )
    for arch in ARCHES:
        assert processed_columns_equal(
            case["reference"][arch.name]["pcols"],
            concat_processed_columns(pcols_fragments[arch.name]),
        ), f"processed columns differ on {arch.name}"
    return outcome, tables


class TestWorkloadMatrix:
    """All 17 workloads x all 5 architectures, one-warp chunks."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_chunked_identical(self, abbr):
        case = workload_case(abbr)
        # Every warp is longer than 7 events, so each is a chunk.
        outcome, tables = assert_stream_matches_whole(case, 7)
        # One simulation of each streamed table and one evaluation of
        # its aggregates give the whole-trace timing and power.
        config, warps_per_cta = case["config"], case["warps_per_cta"]
        for arch in ARCHES:
            pcols = case["reference"][arch.name]["pcols"]
            timing = simulate_warp_ops(
                tables[arch.name], arch, config, warps_per_cta=warps_per_cta
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
        outcome, _ = assert_stream_matches_whole(case, 1)
        assert outcome.num_chunks == case["columnar"].num_warps

    def test_chunk_covers_whole_trace(self):
        case = workload_case("HS")
        outcome, _ = assert_stream_matches_whole(
            case, case["columnar"].num_events + 100
        )
        assert outcome.num_chunks == 1

    def test_chunk_exactly_trace_length(self):
        case = workload_case("BT")
        outcome, _ = assert_stream_matches_whole(case, case["columnar"].num_events)
        assert outcome.num_chunks == 1

    def test_empty_trace(self):
        case = workload_case("HS")
        empty = case["columnar"].slice_warps(0, 0)
        assert empty.num_events == 0
        chunks = list(iter_chunks(empty, 8))
        assert len(chunks) == 1  # one empty chunk, not zero chunks
        assert chunks[0].num_events == 0

        outcome = stream(case, empty, 8)
        assert outcome.num_events == 0
        assert outcome.num_chunks == 1
        ccols = classify_columnar_batch(empty, case["built"].kernel.num_registers)
        tables = assert_outcome_matches(
            outcome, whole_reference(ccols, case["static_widths"], case["config"])
        )
        for arch in ARCHES:
            assert tables[arch.name].num_ops == 0
            assert outcome.aggregates[arch.name].instructions == 0

    def test_live_set_stays_below_the_whole_trace(self):
        # One-warp chunks of a trace of many warps (small-scale HS has
        # 16): the pipeline's peak live set (one chunk through every
        # stage) stays below the whole trace plus its classified
        # columns.
        built = build_workload("HS", "small")
        columnar = run_kernel(built.kernel, built.launch, built.memory)
        assert columnar.num_warps >= 16
        widths = analyze_widths(built.kernel, warp_size=columnar.warp_size)
        outcome = stream_pipeline(
            iter_chunks(columnar, 4),
            ARCHES,
            built.kernel.num_registers,
            static_widths={
                arch.name: widths.register_enc if arch.static_compression else None
                for arch in ARCHES
            },
        )
        ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
        whole = _array_bytes(columnar, ccols)
        assert 0 < outcome.peak_bytes_in_flight < whole

    def test_bytes_in_flight_count_each_array_once(self):
        # The classified columns hold eight of the trace's own arrays and
        # the processed columns four classified ones: small-scale HS as
        # one chunk through G-Scalar counts each distinct buffer once.
        built = build_workload("HS", "small")
        columnar = run_kernel(built.kernel, built.launch, built.memory)
        arch = ArchitectureConfig.gscalar()
        outcome = stream_pipeline(
            iter_chunks(columnar, None), (arch,), built.kernel.num_registers
        )
        ccols = classify_columnar_batch(columnar, built.kernel.num_registers)
        pcols = process_columns(ccols, arch)
        buffers = {}
        for container in (columnar, ccols, pcols):
            for spec in dataclasses.fields(container):
                value = getattr(container, spec.name)
                if isinstance(value, np.ndarray):
                    buffers[value.__array_interface__["data"][0], value.nbytes] = (
                        value.nbytes
                    )
        distinct = sum(buffers.values())
        assert outcome.peak_bytes_in_flight == distinct
        assert distinct < sum(map(_array_bytes, (columnar, ccols, pcols)))


class TestSharedChunkTables:
    """Equal chunk tables, and equal columns of one chunk's tables, are
    one object: G-Scalar without divergent scalars lowers every chunk
    to G-Scalar's table and the statically-compressed RF to the
    baseline's, on every workload, and MV's coalesced segments are one
    array for the four paper architectures."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_equal_tables_and_columns_are_one_object(self, abbr):
        case = workload_case(abbr)
        outcome = stream(case, case["columnar"], 7)
        fragments = outcome.fragments
        for twin, first in (
            ("gscalar", "gscalar_no_divergent"),
            ("static_compress", "baseline"),
        ):
            assert len(fragments[twin]) == outcome.num_chunks
            assert all(a is b for a, b in zip(fragments[twin], fragments[first]))
        for chunk in zip(*fragments.values()):
            for a, b in itertools.combinations(chunk, 2):
                for spec in dataclasses.fields(a):
                    left, right = getattr(a, spec.name), getattr(b, spec.name)
                    assert (left is right) == np.array_equal(left, right), spec.name

    def test_mv_segments_are_one_array(self):
        case = workload_case("MV")
        fragments = stream(case, case["columnar"], 7).fragments
        for chunk in zip(*(fragments[arch.name] for arch in paper_architectures())):
            assert chunk[0].segments.size
            assert all(table.segments is chunk[0].segments for table in chunk)


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


class TestKeyedScalarRfChunks:
    """ALU-scalar's keyed walk under chunking: chunks that hold several
    whole warps (which may share one walk) reassemble to the
    whole-trace interpretation, on every small-scale workload."""

    ARCH = ArchitectureConfig.alu_scalar()

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_chunks_of_several_warps_match_whole(self, abbr):
        built = build_workload(abbr, "small")
        columnar = run_kernel(built.kernel, built.launch, built.memory)
        num_registers = built.kernel.num_registers
        whole = process_columns(
            classify_columnar_batch(columnar, num_registers), self.ARCH
        )
        longest = int(columnar.warp_lengths.max())
        for chunk_events in (2 * longest + 7, 3 * longest + 5):
            chunks = list(iter_chunks(columnar, chunk_events))
            # The grid really puts several warps in one chunk.
            assert any(chunk.columnar.num_warps >= 2 for chunk in chunks)
            fragments = [
                process_columns(
                    classify_columnar_batch(chunk.columnar, num_registers), self.ARCH
                )
                for chunk in chunks
            ]
            assert processed_columns_equal(
                whole, concat_processed_columns(fragments)
            ), chunk_events
