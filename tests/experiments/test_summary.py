"""Per-benchmark summaries against the per-event walks of the figures.

Every summary a figure reads must equal what the per-event oracle
(``tests/oracles.py``) counts over the same benchmark's event-form
trace, on all 17 workloads, and must hold only small objects: a summary
is a handful of counts, never a trace-sized array.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.static_ import analyze_uniformity
from repro.experiments.runner import WARP_SIZE, ExperimentRunner
from repro.experiments.summary import BUILDERS
from repro.isa.opcodes import OpCategory
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

    wc_bdi = runner.summary(abbr, "fig12")
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
    """No summary repeats another's numbers: a builder reads the trace,
    its classified columns or the width analysis, never a summary."""
    runner = ExperimentRunner(scale="tiny")

    def refuse(abbr, summary):
        raise AssertionError(f"the {name} builder read the {summary} summary")

    monkeypatch.setattr(runner, "summary", refuse)
    BUILDERS[name](runner, "HS")
