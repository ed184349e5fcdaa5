"""Tests for table regenerators and the text renderer."""

from repro.config import GpuConfig
from repro.experiments import table1, table2, table3
from repro.experiments.tables import percent, render_table
from repro.power.circuit import PAPER_TABLE3


class TestRenderer:
    def test_alignment_and_title(self):
        text = render_table(["a", "bb"], [(1, 2.5), (30, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text

    def test_percent(self):
        assert percent(0.5) == "50.0%"


class TestTable1:
    def test_matches_paper_values(self):
        rows = dict(table1.compute())
        assert rows["# of SMs"] == "15"
        assert rows["Registers per SM"] == "128KB"
        assert rows["SM Frequency"] == "1.4GHz"
        assert rows["Warp Size"] == "32"
        assert rows["L2$ Size"] == "768KB"
        assert rows["Threads per SM"] == "1536"

    def test_render(self):
        assert "Table 1" in table1.render()

    def test_custom_config(self):
        rows = dict(table1.compute(GpuConfig(num_sms=4)))
        assert rows["# of SMs"] == "4"


class TestTable2:
    def test_all_benchmarks_listed(self):
        rows = table2.compute()
        assert len(rows) == 17
        assert ("Rodinia", "backprop", "BP") in rows
        assert ("Parboil", "lbm", "LBM") in rows

    def test_render(self):
        assert "Table 2" in table2.render()


class TestTable3:
    def test_estimates_close_to_paper(self):
        data = table3.compute()
        assert abs(data.compressor.area_um2 - 11624) / 11624 < 0.15
        assert abs(data.decompressor.power_mw - 15.86) / 15.86 < 0.10
        assert data.per_sm_power_w < 0.4
        assert data.per_sm_area_mm2 < 0.2

    def test_every_estimate_within_paper_tolerance(self):
        data = table3.compute()
        for estimate in (data.decompressor, data.compressor):
            paper = PAPER_TABLE3[estimate.name]
            assert abs(estimate.area_um2 - paper["area_um2"]) / paper["area_um2"] < 0.15
            assert abs(estimate.power_mw - paper["power_mw"]) / paper["power_mw"] < 0.10
            assert abs(estimate.delay_ns - paper["delay_ns"]) < 0.05
        # Per-SM overhead: the paper's 0.32 W and 0.16 mm^2.
        assert abs(data.per_sm_power_w - 0.32) < 0.05
        assert abs(data.per_sm_area_mm2 - 0.16) < 0.02

    def test_render_contains_both_blocks(self):
        text = table3.render()
        assert "compressor" in text and "decompressor" in text
        assert "paper" in text
