"""Tests for the static-vs-dynamic scalarization experiment.

The headline property is *soundness*: the uniformity analysis must
never label a site provably-scalar if any dynamic instance of it runs
under a mask narrower than its warp's entry mask.
"""

import numpy as np
import pytest

from repro.analysis.static_ import StaticScalarClass, analyze_uniformity
from repro.analysis.static_.widths import analyze_widths
from repro.experiments import staticdyn
from repro.experiments.runner import ExperimentRunner
from repro.isa import KernelBuilder
from repro.isa.opcodes import Opcode
from repro.scalar.batch import classify_columnar_batch
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.simt.trace import OPCODE_TO_ID
from repro.workloads.registry import all_workloads

from tests.oracles import annotate_sites_events
from tests.reference.trace import to_trace


def columns_of(kernel, trace):
    return classify_columnar_batch(trace, kernel.num_registers)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


@pytest.fixture(scope="module")
def data(runner):
    return staticdyn.compute(runner)


class TestAnnotateSites:
    def test_straight_line_sites_are_sequential(self, runner):
        kernel = runner.run("MM").built.kernel
        columns = runner.classified_columns("MM")
        blocks, index = staticdyn.annotate_sites(kernel, columns)
        assert np.array_equal(blocks, columns.blocks)
        for position in range(int(columns.warp_lengths[0])):
            opcode_id = int(columns.opcode_ids[position])
            if opcode_id == OPCODE_TO_ID[Opcode.BRA]:
                assert index[position] == -1
            else:
                inst = kernel.blocks[blocks[position]].instructions[index[position]]
                assert OPCODE_TO_ID[inst.opcode] == opcode_id

    @pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
    def test_matches_event_walk(self, runner, abbr):
        kernel = runner.run(abbr).built.kernel
        columns = runner.classified_columns(abbr)
        blocks, index = staticdyn.annotate_sites(kernel, columns)
        expected = [
            -1 if site is None else site[1]
            for warp in to_trace(runner.run(abbr).columnar).warps
            for _, site in annotate_sites_events(kernel, warp)
        ]
        assert index.tolist() == expected

    def test_loop_reexecution_resets_the_counter(self):
        b = KernelBuilder("loop")
        tid = b.tid()
        acc = b.mov(0)
        with b.for_range(0, 4):
            acc = b.iadd(acc, 1, dst=acc)
        b.st_global(b.imad(tid, 4, 0x100), acc)
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())
        columns = columns_of(kernel, trace)
        blocks, index = staticdyn.annotate_sites(kernel, columns)
        # The body block's two IADDs (accumulator + loop counter) are
        # each hit once per iteration, always at the same static site.
        iadd = columns.opcode_ids == OPCODE_TO_ID[Opcode.IADD]
        body_sites = [
            (int(block), int(site))
            for block, site, is_iadd in zip(blocks, index, iadd)
            if site >= 0 and is_iadd and block != 0
        ]
        assert len(body_sites) == 8  # 2 static IADDs x 4 iterations
        unique = set(body_sites)
        assert len(unique) == 2
        for site in unique:
            assert body_sites.count(site) == 4

    def test_desync_raises(self):
        b = KernelBuilder("tiny")
        b.st_global(b.mov(0x100), b.mov(7))
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())
        other = KernelBuilder("other")
        other.iadd(other.mov(1), 2)
        with pytest.raises(ValueError, match="desynchronized"):
            staticdyn.annotate_sites(other.finish(), columns_of(kernel, trace))


class TestSoundness:
    def test_no_benchmark_has_soundness_violations(self, data):
        assert len(data.rows) == 17
        for row in data.rows:
            assert row.soundness_violations == 0, row.abbr
        assert data.total_soundness_violations == 0

    def test_provably_scalar_sites_never_run_divergent(self, runner):
        # Event-level restatement over one divergent benchmark: every
        # dynamic instance of a PROVABLY_SCALAR site keeps its warp's
        # entry mask.
        kernel = runner.run("BT").built.kernel
        columns = runner.classified_columns("BT")
        result = analyze_uniformity(kernel)
        blocks, index = staticdyn.annotate_sites(kernel, columns)
        bounds = columns.warp_bounds()
        checked = 0
        for warp in range(len(columns.warp_lengths)):
            start, stop = int(bounds[warp]), int(bounds[warp + 1])
            if start == stop:
                continue
            entry_mask = columns.masks[start]
            for position in range(start, stop):
                if index[position] < 0:
                    continue
                verdict = result.class_of(int(blocks[position]), int(index[position]))
                if verdict is StaticScalarClass.PROVABLY_SCALAR:
                    assert columns.masks[position] == entry_mask
                    checked += 1
        assert checked > 0


class TestMetrics:
    def test_metric_ranges(self, data):
        for row in data.rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0
            assert 0.0 <= row.coverage <= 1.0
            assert row.true_positive_events <= row.predicted_events
            assert row.predicted_events <= row.total_events

    def test_static_recall_below_dynamic_detection(self, data):
        # The paper's section 6 point: static scalarization is a lower
        # bound on what dynamic detection finds — recall can hit 1.0 on
        # uniform kernels but must fall short somewhere.
        assert any(row.recall < 1.0 for row in data.rows)
        assert 0.0 < data.average_coverage < 1.0

    def test_score_benchmark_on_uniform_kernel(self):
        # A kernel with only warp-uniform work: every non-BRA event is
        # predicted and detected scalar -> perfect precision and recall.
        b = KernelBuilder("uniform")
        base = b.ctaid()
        value = b.iadd(b.imul(base, 3), 1)
        b.st_global(b.mov(0x100), value)
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())
        columns = columns_of(kernel, trace)
        row = staticdyn.score_benchmark(
            "U",
            kernel,
            columns,
            staticdyn.annotate_sites(kernel, columns),
            analyze_uniformity(kernel),
        )
        assert row.static_provable == kernel.static_instruction_count()
        assert row.soundness_violations == 0
        assert row.precision == 1.0
        assert row.recall == 1.0


class TestRender:
    def test_render_has_all_rows_and_average(self, data):
        text = staticdyn.render(data)
        assert "AVG" in text
        for row in data.rows:
            assert row.abbr in text
        assert "precision" in text and "recall" in text


@pytest.fixture(scope="module")
def widths_data(runner):
    return staticdyn.compute_widths(runner)


class TestWidthSoundness:
    """The soundness gate: zero over-claims on every benchmark."""

    def test_no_benchmark_over_claims(self, widths_data):
        assert len(widths_data.rows) == 17
        for row in widths_data.rows:
            assert row.over_claims == 0, row.abbr
        assert widths_data.total_over_claims == 0

    def test_precision_is_perfect_when_sound(self, widths_data):
        for row in widths_data.rows:
            assert row.precision == 1.0, row.abbr

    def test_metric_ranges(self, widths_data):
        for row in widths_data.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert 0.0 <= row.recall <= 1.0
            assert row.claimed_events <= row.write_events
            assert row.claimed_bytes <= row.observed_bytes

    def test_claims_are_nontrivial(self, widths_data):
        # The analysis must actually claim something somewhere, or the
        # gate would pass vacuously.
        assert any(row.claimed_bytes > 0 for row in widths_data.rows)
        assert any(row.narrow_registers > 0 for row in widths_data.rows)

    def test_score_widths_on_narrow_kernel(self):
        # Every lane stores a value bounded by 255: the static claim of
        # three zero prefix bytes must be dynamically confirmed.
        b = KernelBuilder("narrow")
        tid = b.tid()
        small = b.and_(tid, 0xFF)
        b.st_global(b.imad(tid, 4, 0x100), small)
        kernel = b.finish()
        trace = run_kernel(kernel, LaunchConfig(1, 32), MemoryImage())
        columns = columns_of(kernel, trace)
        row = staticdyn.score_widths_benchmark(
            "N",
            kernel,
            columns,
            staticdyn.annotate_sites(kernel, columns),
            analyze_widths(kernel, warp_size=32),
        )
        assert row.over_claims == 0
        assert row.claimed_bytes > 0
        assert row.precision == 1.0


class TestWidthRender:
    def test_render_reports_sound_verdict(self, widths_data):
        text = staticdyn.render_widths(widths_data)
        assert "SOUND" in text and "UNSOUND" not in text
        assert "AVG" in text
        for row in widths_data.rows:
            assert row.abbr in text

    def test_render_flags_unsound_data(self, widths_data):
        broken = staticdyn.WidthDynData(
            rows=[
                staticdyn.WidthDynRow(
                    abbr="X",
                    narrow_registers=1,
                    registers=2,
                    write_events=10,
                    claimed_events=5,
                    over_claims=3,
                    claimed_bytes=20,
                    confirmed_bytes=10,
                    observed_bytes=30,
                )
            ]
        )
        text = staticdyn.render_widths(broken)
        assert "UNSOUND" in text and "3" in text
