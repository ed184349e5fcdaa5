"""Per-benchmark summaries against the per-event walks of the figures.

Every summary a figure reads must equal what the per-event oracle
(``tests/oracles.py``) counts over the same benchmark's event-form
trace, on all 17 workloads, and must hold only small objects: a summary
is a handful of counts, never a trace-sized array.  Folded over
whole-warp chunks of any size, every summary must equal the one-chunk
pass's, at tiny and small scale.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_ import analyze_uniformity
from repro.experiments.runner import WARP_SIZE, ExperimentRunner
from repro.experiments.summary import BUILDERS
from repro.isa.opcodes import OpCategory
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.eligibility import ScalarClass
from repro.workloads.registry import all_workloads

from tests.oracles import (
    access_distribution_events,
    address_width_study_events,
    chunk_scalar_stats_events,
    classified_events,
    compare_trace_events,
    divergence_stats_events,
    dynamic_static_scalar_fraction_events,
    wc_bdi_energy_events,
)
from tests.reference.trace import to_trace


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


def _arrays(value):
    """Every numpy array reachable through dataclasses and containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_summaries_match_event_walks(runner, abbr):
    run = runner.run(abbr)
    trace = to_trace(run.columnar)
    classified = classified_events(runner, abbr)
    events = [item for warp in classified for item in warp]

    stats = runner.summary(abbr, "counts")
    assert (
        stats.total_instructions,
        stats.divergent_instructions,
        stats.class_counts[ScalarClass.DIVERGENT_SCALAR],
    ) == divergence_stats_events(classified)
    assert stats.total_instructions == len(events)
    assert stats.divergent_instructions == sum(item.divergent for item in events)
    assert stats.decompress_moves == sum(
        item.needs_decompress_move for item in events
    )
    assert stats.class_counts == {
        cls: sum(item.scalar_class is cls for item in events) for cls in ScalarClass
    }
    assert stats.sfu_instructions == sum(
        item.category is OpCategory.SFU for item in events
    )
    assert stats.mem_instructions == sum(
        item.category is OpCategory.MEM for item in events
    )

    assert runner.summary(abbr, "fig8") == access_distribution_events(classified)

    stats32, stats64 = runner.summary(abbr, "fig10")
    assert stats32 == chunk_scalar_stats_events(trace, 16)
    assert stats64 == chunk_scalar_stats_events(
        to_trace(runner.execute(abbr, 64)), 16
    )

    wc_bdi = runner.summary(abbr, "fig12").energy(runner.params)
    oracle = wc_bdi_energy_events(classified, WARP_SIZE, runner.params)
    assert wc_bdi.accesses == oracle.accesses
    assert wc_bdi.rf_pj == pytest.approx(oracle.rf_pj, rel=1e-12, abs=0)

    extras = runner.summary(abbr, "extras")
    assert extras.comparison == compare_trace_events(trace)
    assert extras.width_study == address_width_study_events(trace)
    assert extras.register_enc == runner.static_widths(abbr)

    static_row, width_row = runner.summary(abbr, "staticdyn")
    assert static_row.abbr == width_row.abbr == abbr
    assert static_row.total_events == len(events)
    assert static_row.coverage == dynamic_static_scalar_fraction_events(
        run.built.kernel, analyze_uniformity(run.built.kernel), trace
    )

    for name in BUILDERS:
        assert list(_arrays(runner.summary(abbr, name))) == [], name


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_read_no_summary(monkeypatch, name):
    """No summary repeats another's numbers: a builder and its fold read
    the trace, its classified columns or the width analysis, never a
    summary."""
    runner = ExperimentRunner(scale="tiny")

    def refuse(abbr, summary):
        raise AssertionError(f"the {name} builder read the {summary} summary")

    monkeypatch.setattr(runner, "summary", refuse)
    runner.prefetch(names=["HS"], experiments=(name,), arches=())
    assert ("HS", name) in runner._summaries


@pytest.fixture(scope="module")
def unchunked():
    """One runner per scale whose passes are one chunk per trace."""
    return {scale: ExperimentRunner(scale=scale) for scale in ("tiny", "small")}


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_streamed_summaries_equal_one_chunk_summaries(unchunked, scale, abbr, data):
    """Every summary, folded over whole-warp chunks of a drawn size,
    equals (``==``) the one-chunk pass's, and no classification input
    is more than one chunk: at most ``chunk_events`` events, or one
    warp."""
    whole = unchunked[scale]
    length = whole.run(abbr).columnar.num_events
    chunk_events = data.draw(st.integers(1, length + 3), label="chunk_events")
    classified = []
    classify = classify_columnar_batch

    def spy(columnar, num_registers):
        classified.append((columnar.num_events, columnar.num_warps))
        return classify(columnar, num_registers)

    runner = ExperimentRunner(scale=scale, chunk_events=chunk_events)
    with pytest.MonkeyPatch.context() as patch:
        # Wherever the classifier is looked up.
        for module in list(sys.modules.values()):
            if getattr(module, "classify_columnar_batch", None) is classify:
                patch.setattr(module, "classify_columnar_batch", spy)
        runner.prefetch(names=[abbr], experiments=tuple(BUILDERS), arches=())
    assert all(
        events <= chunk_events or warps == 1 for events, warps in classified
    )
    # Each chunk is classified once, in one pass.
    assert sum(events for events, _ in classified) == length
    assert runner.stats.counters["stream_passes"] == 1
    assert len(classified) == runner.stats.counters["stream_chunks"]
    for name in BUILDERS:
        assert runner.summary(abbr, name) == whole.summary(abbr, name), name
