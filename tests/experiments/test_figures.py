"""Shape tests for every figure regenerator.

These check the *qualitative* paper claims, not absolute numbers:
who wins, what's bigger than what, and that rendering works.  The
``runner`` tests run at tiny scale; the paper-shape bounds (the
``shared_runner`` tests) need the latency hiding and value mix of
small scale.
"""

import pytest

from repro.experiments import fig1, fig8, fig9, fig10, fig11, fig12, stalls
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="tiny")


class TestFig1:
    def test_shape(self, runner):
        data = fig1.compute(runner)
        assert len(data.rows) == 17
        assert 0.05 < data.average_divergent < 0.6
        assert data.average_divergent_scalar <= data.average_divergent
        # The paper's headline: a large share of divergent instructions
        # is divergent-scalar.
        assert data.average_scalar_share_of_divergent > 0.3

    def test_lbm_among_most_divergent(self, runner):
        data = fig1.compute(runner)
        by_abbr = {row.abbr: row.stats.divergent_fraction for row in data.rows}
        assert by_abbr["LBM"] > by_abbr["MQ"]
        assert by_abbr["HW"] > by_abbr["MM"]

    def test_render(self, runner):
        text = fig1.render(fig1.compute(runner))
        assert "Figure 1" in text and "AVG" in text

    def test_paper_shape(self, shared_runner):
        data = fig1.compute(shared_runner)
        # Divergence is widespread and a large share of it is scalar.
        assert 0.10 < data.average_divergent < 0.50
        assert data.average_scalar_share_of_divergent > 0.35

        by_abbr = {row.abbr: row.stats for row in data.rows}
        # The paper names lbm and heartwall as the most divergent.
        for heavy in ("LBM", "HW"):
            assert by_abbr[heavy].divergent_fraction > 0.3
        # And mri-q / sgemm as non-divergent.
        for convergent in ("MQ", "MM"):
            assert by_abbr[convergent].divergent_fraction < 0.05
        # §5.2: HS / LBM / SAD carry large divergent-scalar populations.
        for scalar_heavy in ("HS", "LBM", "SAD"):
            assert by_abbr[scalar_heavy].divergent_scalar_fraction > 0.10


class TestFig8:
    def test_scalar_is_largest_similarity_class(self, runner):
        data = fig8.compute(runner)
        averages = data.average_fractions()
        assert averages["scalar"] > averages["2-byte"]
        assert averages["scalar"] > 0.2
        assert abs(sum(averages.values()) - 1.0) < 1e-9

    def test_render(self, runner):
        text = fig8.render(fig8.compute(runner))
        assert "3-byte" in text

    def test_paper_shape(self, shared_runner):
        data = fig8.compute(shared_runner)
        averages = data.average_fractions()
        # Scalar is the dominant similarity class, near the paper's 36%.
        assert 0.25 < averages["scalar"] < 0.50
        # 3-byte is the second-largest non-divergent class.
        assert averages["3-byte"] > averages["2-byte"]
        assert 0.10 < averages["3-byte"] < 0.30
        # Exploitable similarity (scalar + n-byte) covers most accesses.
        exploitable = (
            averages["scalar"]
            + averages["3-byte"]
            + averages["2-byte"]
            + averages["1-byte"]
        )
        assert exploitable > 0.5

        by_abbr = {row.abbr: row.distribution.fractions() for row in data.rows}
        # §5.3: MG and MV have few scalars but many 3/2-byte accesses.
        for abbr in ("MG", "MV"):
            partial = by_abbr[abbr]["3-byte"] + by_abbr[abbr]["2-byte"]
            assert partial > 0.25, abbr


class TestFig9:
    def test_stacking_and_doubling(self, runner):
        data = fig9.compute(runner)
        assert len(data.rows) == 17
        # G-Scalar roughly doubles eligibility over ALU-scalar (paper:
        # 22% -> 40%); allow a generous band at tiny scale.
        assert data.average_total > 1.4 * data.average_alu_scalar
        for row in data.rows:
            assert row.total_eligible <= 1.0

    def test_bp_half_scalar_visible(self, runner):
        data = fig9.compute(runner)
        bp = next(r for r in data.rows if r.abbr == "BP")
        assert bp.half_scalar > 0.05

    def test_render(self, runner):
        assert "ALU scalar" in fig9.render(fig9.compute(runner))

    def test_paper_shape(self, shared_runner):
        data = fig9.compute(shared_runner)
        # The headline: G-Scalar roughly doubles eligibility over ALU-scalar.
        assert 0.15 < data.average_alu_scalar < 0.35
        assert data.average_total > 1.45 * data.average_alu_scalar
        assert 0.30 < data.average_total < 0.55

        by_abbr = {row.abbr: row for row in data.rows}
        # §5.2: supporting divergent scalar doubles LBM's eligible count.
        lbm = by_abbr["LBM"]
        without_divergent = lbm.alu_scalar + lbm.sfu_mem_scalar + lbm.half_scalar
        assert lbm.total_eligible > 1.8 * without_divergent
        # BP has the largest half-warp population (paper: 12%).
        assert by_abbr["BP"].half_scalar == max(r.half_scalar for r in data.rows)


class TestFig10:
    def test_warp64_increases_chunk_scalar(self, runner):
        data = fig10.compute(runner)
        # The paper's effect: quarter-scalar at warp 64 exceeds
        # half-scalar at warp 32 on average.
        assert data.average_warp64 > data.average_warp32

    def test_render(self, runner):
        assert "quarter" in fig10.render(fig10.compute(runner))

    def test_paper_shape(self, shared_runner):
        data = fig10.compute(shared_runner)
        # Wider warps merge distinct scalar warps into chunk-scalar ones.
        assert data.average_warp64 > data.average_warp32
        assert data.average_warp32 < 0.10
        # The effect exists but stays a minor population, as in the paper.
        assert data.average_warp64 < 0.20

        # Some benchmark shows a significant jump (the paper calls out
        # benchmarks whose count "increases significantly").
        jumps = [r.fraction_warp64 - r.fraction_warp32 for r in data.rows]
        assert max(jumps) > 0.02


class TestFig11:
    @pytest.fixture(scope="class")
    def data(self, shared_runner):
        # Tiny launches (2 warps) cannot hide the +3-cycle latency, so
        # efficiency shape tests need enough warps for latency hiding —
        # exactly the §5.4 occupancy argument.
        return fig11.compute(shared_runner)

    def test_gscalar_beats_baseline_and_alu_scalar(self, data):
        # Headline efficiency ordering: G-Scalar > ALU-scalar > baseline.
        assert data.average_gscalar_efficiency > 1.08
        assert data.average_gscalar_efficiency > data.average_alu_scalar_efficiency
        assert data.average_alu_scalar_efficiency > 1.0

    def test_bp_is_the_star(self, data):
        bp = next(r for r in data.rows if r.abbr == "BP")
        others = [
            r.normalized_efficiency("gscalar") for r in data.rows if r.abbr != "BP"
        ]
        assert bp.normalized_efficiency("gscalar") > max(others)
        # BP's scalar SFU chains: the top gain, by a wide margin.
        assert bp.normalized_efficiency("gscalar") > 1.4

    def test_memory_bound_lbm_gains_little(self, data):
        # §5.3: memory-intensive LBM gains less than 20%.
        lbm = next(r for r in data.rows if r.abbr == "LBM")
        assert lbm.normalized_efficiency("gscalar") < 1.20

    def test_ipc_penalty_small_on_average(self, data):
        assert 0.88 < data.average_gscalar_ipc < 1.02

    def test_lc_pays_most_for_the_longer_pipeline(self, data):
        # §5.4: LC (low occupancy + integer DIV) is among the most
        # degraded benchmarks and pays visibly for the +3 cycles.
        by_abbr = {row.abbr: row for row in data.rows}
        lc_ipc = by_abbr["LC"].normalized_ipc("gscalar")
        assert lc_ipc < 0.96
        degraded = sorted(r.normalized_ipc("gscalar") for r in data.rows)
        assert lc_ipc <= degraded[len(degraded) // 2]  # bottom half

    def test_gscalar_geq_without_divergent(self, data):
        for row in data.rows:
            assert (
                row.normalized_efficiency("gscalar")
                >= row.normalized_efficiency("gscalar_no_divergent") - 0.02
            )
        # Divergent-scalar support helps the divergent benchmarks.
        by_abbr = {row.abbr: row for row in data.rows}
        for abbr in ("HW", "SAD", "BT"):
            row = by_abbr[abbr]
            assert row.normalized_efficiency("gscalar") >= row.normalized_efficiency(
                "gscalar_no_divergent"
            )

    def test_render(self, data):
        assert "G-Scalar" in fig11.render(data)


class TestFig12:
    @pytest.fixture(scope="class")
    def data(self, runner):
        return fig12.compute(runner)

    def test_ordering_matches_paper(self, data):
        # ours < scalar-only < baseline on average (54% vs 37% savings).
        assert data.average("ours") < data.average("scalar_rf") < 1.0
        assert data.average("ours") < data.average("wc_bdi")

    def test_mg_mv_gap_over_scalar_rf(self, data):
        """§5.3: on MG and MV our compression beats the scalar RF by a
        wide margin because similarity is partial-byte, not scalar."""
        for abbr in ("MG", "MV"):
            row = next(r for r in data.rows if r.abbr == abbr)
            assert row.normalized["ours"] < row.normalized["scalar_rf"] - 0.1

    def test_render(self, data):
        assert "W-C" in fig12.render(data)

    def test_paper_shape(self, shared_runner):
        data = fig12.compute(shared_runner)
        ours = data.average("ours")
        scalar_rf = data.average("scalar_rf")
        wc = data.average("wc_bdi")
        # Ordering: ours < W-C and ours < scalar-only < baseline.
        assert ours < wc < 1.0
        assert ours < scalar_rf < 1.0
        # Magnitudes near the paper's 0.46 / 0.63.
        assert 0.35 < ours < 0.60
        assert 0.50 < scalar_rf < 0.75

        by_abbr = {row.abbr: row.normalized for row in data.rows}
        # §5.3: on MG and MV (partial-byte similarity, few scalars) ours
        # beats the scalar RF by a clear margin.
        for abbr in ("MG", "MV"):
            assert by_abbr[abbr]["ours"] < 0.85 * by_abbr[abbr]["scalar_rf"], abbr


class TestStalls:
    @pytest.fixture(scope="class")
    def data(self, runner):
        return stalls.compute(runner)

    def test_rows_cover_suite_on_both_arches(self, data):
        assert len(data.rows) == 17 * 2
        assert data.arch_names == ("baseline", "gscalar")

    def test_fractions_tile_the_issue_slots(self, data):
        from repro.timing.sm import STALL_CAUSES

        for row in data.rows:
            total = row.issue_fraction() + sum(
                row.stall_fraction(cause) for cause in STALL_CAUSES
            )
            assert abs(total - 1.0) < 1e-9

    def test_scoreboard_dominates_at_tiny_scale(self, data):
        # Tiny problem sizes leave few warps to hide latency behind, so
        # RAW waits dwarf every structural cause.
        for arch in data.arch_names:
            assert data.average_stall_fraction(arch, "scoreboard") > 0.5
            assert data.average_stall_fraction(
                arch, "scoreboard"
            ) > data.average_stall_fraction(arch, "branch_shadow")

    def test_render(self, data):
        text = stalls.render(data)
        assert "Stall attribution" in text
        assert "AVG" in text and "bank.conf%" in text
