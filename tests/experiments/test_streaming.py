"""Differential gate: chunk-streaming pipeline vs the whole-trace engines.

The streaming orchestrator (:mod:`repro.experiments.streaming`) must be
*bit-identical* to the whole-trace batch pipeline for any chunk size —
same classified columns, same per-architecture processed columns, same
timing result and the same power report.  These tests pin that contract
across every workload and architecture, at the chunk-grid edge cases
(size 1, one chunk, empty trace), and under hypothesis-drawn random
chunk sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_.widths import analyze_widths
from repro.config import GpuConfig
from repro.experiments.runner import matrix_architectures
from repro.experiments.streaming import StreamingPipeline, stream_pipeline
from repro.power.accounting import PowerAccountant
from repro.scalar.arch_batch import process_columns
from repro.scalar.tracker import classify_trace
from repro.scalar.columns import (
    ClassifiedColumns,
    concat_classified_columns,
    concat_processed_columns,
    processed_columns_equal,
)
from repro.simt import run_kernel
from repro.simt.trace import iter_chunks
from repro.timing.gpu import simulate_architecture_columns
from repro.workloads.registry import all_workloads, build_workload

from tests.oracles import columns_from_classified

ARCHES = matrix_architectures()
ARCH_IDS = [arch.name for arch in ARCHES]
WORKLOAD_ABBRS = [spec.abbr for spec in all_workloads()]

_CASE_CACHE: dict[str, dict] = {}


def workload_case(abbr: str) -> dict:
    """Tiny-scale trace plus the whole-trace reference per architecture."""
    if abbr not in _CASE_CACHE:
        built = build_workload(abbr, "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        columnar = trace.to_columnar()
        config = GpuConfig()
        warps_per_cta = built.launch.warps_per_cta(trace.warp_size)
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
        reference = {}
        for arch in ARCHES:
            pcols = process_columns(
                ccols, arch, static_widths=static_widths[arch.name]
            )
            timing = simulate_architecture_columns(
                ccols,
                pcols,
                arch,
                config,
                warps_per_cta=warps_per_cta,
                sm_engine="event",
            )
            power = PowerAccountant(arch, config=config).account_columns(
                pcols, timing
            )
            reference[arch.name] = (pcols, timing, power)
        _CASE_CACHE[abbr] = {
            "built": built,
            "columnar": columnar,
            "config": config,
            "warps_per_cta": warps_per_cta,
            "static_widths": static_widths,
            "ccols": ccols,
            "reference": reference,
        }
    return _CASE_CACHE[abbr]


def assert_classified_identical(expected: ClassifiedColumns, actual: ClassifiedColumns):
    assert actual.warp_size == expected.warp_size
    want, got = expected.as_arrays(), actual.as_arrays()
    assert sorted(want) == sorted(got)
    for name, array in want.items():
        assert np.array_equal(array, got[name]), f"classified column {name} differs"


def stream_case(case: dict, chunk_events: int):
    """Run the chunked pipeline collecting every per-chunk fragment."""
    ccols_fragments: list[ClassifiedColumns] = []
    continued: list[bool] = []
    pcols_fragments: dict[str, list] = {arch.name: [] for arch in ARCHES}

    def on_classified(chunk, ccols):
        ccols_fragments.append(ccols)
        continued.append(chunk.first_warp_continued)

    def on_processed(chunk, arch, pcols):
        pcols_fragments[arch.name].append(pcols)

    outcome = stream_pipeline(
        iter_chunks(case["columnar"], chunk_events),
        ARCHES,
        case["built"].kernel.num_registers,
        config=case["config"],
        static_widths=case["static_widths"],
        warps_per_cta=case["warps_per_cta"],
        on_classified=on_classified,
        on_processed=on_processed,
    )
    return outcome, ccols_fragments, continued, pcols_fragments


def assert_stream_matches_whole(case: dict, chunk_events: int):
    outcome, ccols_fragments, continued, pcols_fragments = stream_case(
        case, chunk_events
    )
    assert outcome.num_events == case["columnar"].num_events
    assert_classified_identical(
        case["ccols"], concat_classified_columns(ccols_fragments, continued)
    )
    for arch in ARCHES:
        pcols, timing, power = case["reference"][arch.name]
        assert processed_columns_equal(
            pcols, concat_processed_columns(pcols_fragments[arch.name], continued)
        ), f"processed columns differ on {arch.name}"
        assert outcome.timing[arch.name] == timing, f"timing differs on {arch.name}"
        assert outcome.power[arch.name] == power, f"power differs on {arch.name}"
    return outcome


class TestWorkloadMatrix:
    """All 17 workloads x all 5 architectures, warp-splitting chunk size."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ABBRS)
    def test_chunked_identical(self, abbr):
        case = workload_case(abbr)
        # A prime chunk size guarantees warps get split mid-stream.
        assert_stream_matches_whole(case, 7)


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

        pipeline = StreamingPipeline(
            ARCHES,
            case["built"].kernel.num_registers,
            config=case["config"],
            static_widths=case["static_widths"],
        )
        for chunk in chunks:
            pipeline.feed(chunk)
        outcome = pipeline.finish()
        assert outcome.num_events == 0
        for arch in ARCHES:
            assert outcome.timing[arch.name].cycles == 0
            assert outcome.power[arch.name].instructions == 0

    def test_feed_after_finish_rejected(self):
        case = workload_case("HS")
        pipeline = StreamingPipeline(
            ARCHES[:1],
            case["built"].kernel.num_registers,
            config=case["config"],
        )
        chunks = list(iter_chunks(case["columnar"], 64))
        pipeline.feed(chunks[0])
        pipeline.finish()
        with pytest.raises(RuntimeError):
            pipeline.feed(chunks[0])

    def test_finish_twice_rejected(self):
        case = workload_case("HS")
        pipeline = StreamingPipeline(
            ARCHES[:1],
            case["built"].kernel.num_registers,
            config=case["config"],
        )
        for chunk in iter_chunks(case["columnar"], 64):
            pipeline.feed(chunk)
        pipeline.finish()
        with pytest.raises(RuntimeError, match="after finish"):
            pipeline.finish()

    def test_aggregates_only_mode_refuses_finish(self):
        case = workload_case("HS")
        pipeline = StreamingPipeline(
            ARCHES[:1],
            case["built"].kernel.num_registers,
            config=case["config"],
            collect_timing_ops=False,
        )
        for chunk in iter_chunks(case["columnar"], 64):
            pipeline.feed(chunk)
        assert pipeline.peak_bytes_in_flight > 0
        with pytest.raises(RuntimeError):
            pipeline.finish()


class TestRandomChunkGrids:
    """Any chunk size reproduces all four output types exactly."""

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
