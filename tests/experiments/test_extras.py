"""Tests for the §5-text extras experiment."""

import pytest

from repro.experiments import extras
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_bar_chart


@pytest.fixture(scope="module")
def data():
    return extras.compute(ExperimentRunner(scale="tiny"))


class TestExtras:
    def test_compression_ratios_track_each_other(self, data):
        assert data.ours_ratio > 1.5
        assert data.bdi_ratio > 1.5
        # Ours slightly ahead, as in §5.3.
        assert data.ours_ratio > data.bdi_ratio
        assert data.ours_ratio / data.bdi_ratio < 1.3

    def test_move_overhead_bands(self, data):
        assert 0.0 < data.decompress_move_overhead < 0.06
        assert data.decompress_move_overhead_compiler <= data.decompress_move_overhead

    def test_compiler_shortfall(self, data):
        assert data.static_scalar_fraction < data.dynamic_scalar_fraction
        assert 0.05 < data.compiler_shortfall < 0.60

    def test_address_width_direction(self, data):
        assert data.address_savings_64bit > data.address_savings_32bit

    def test_codec_ratio_in_paper_band(self, data):
        assert 0.15 <= data.codec_cost_ratio <= 0.35

    def test_sidecar_constants(self, data):
        assert data.sidecar_energy_fraction == 0.052
        assert 0.05 < data.sidecar_area_fraction < 0.09

    def test_render(self, data):
        text = extras.render(data)
        assert "compression ratio" in text
        assert "compiler" in text


class TestExtrasAtSmallScale:
    """§5.3 text: average compression ratio ours 2.17 vs BDI 2.13 —
    both schemes track each other with ours slightly ahead."""

    @pytest.fixture(scope="class")
    def small(self, shared_runner):
        return extras.compute(shared_runner)

    def test_paper_shape(self, small):
        assert small.ours_ratio > small.bdi_ratio  # ours slightly ahead
        assert small.ours_ratio / small.bdi_ratio < 1.25
        # The §3.3 decompress-move overhead stays near the ~2% of prior work.
        assert small.decompress_move_overhead < 0.05
        # Our codec is cheaper than the BDI codec (paper: 19-30%).
        assert small.codec_cost_ratio <= 0.35


class TestBarChart:
    def test_basic_render(self):
        chart = render_bar_chart(
            ["A", "B"],
            {"x": [1.0, 0.5], "y": [0.25, 0.75]},
            width=20,
            title="T",
        )
        assert chart.startswith("T")
        assert "#" * 20 in chart  # the peak bar is full width
        assert "0.25" in chart

    def test_reference_tick(self):
        chart = render_bar_chart(["A"], {"x": [0.5]}, width=10, reference=1.0)
        assert "|" in chart

    def test_empty_series(self):
        assert render_bar_chart([], {}, title="nothing") == "nothing"
