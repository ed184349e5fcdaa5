"""Tests for the benchmark registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.parboil import mv
from repro.workloads.registry import (
    SCALES,
    ScaleConfig,
    all_workloads,
    build_workload,
    workload_by_name,
)


class TestRegistry:
    def test_all_seventeen_present(self):
        specs = all_workloads()
        assert len(specs) == 17
        abbrs = {spec.abbr for spec in specs}
        assert abbrs == {
            "BT", "BP", "HW", "HS", "LC", "PF", "SR1", "SR2",
            "CC", "LBM", "MG", "MQ", "SAD", "MM", "MV", "ST", "ACF",
        }

    def test_suites_match_table2(self):
        by_abbr = {spec.abbr: spec for spec in all_workloads()}
        assert by_abbr["BP"].suite == "Rodinia"
        assert by_abbr["LBM"].suite == "Parboil"
        rodinia = [s for s in all_workloads() if s.suite == "Rodinia"]
        parboil = [s for s in all_workloads() if s.suite == "Parboil"]
        assert len(rodinia) == 8
        assert len(parboil) == 9

    def test_lookup_by_abbreviation_and_name(self):
        assert workload_by_name("bp").name == "backprop"
        assert workload_by_name("Backprop").abbr == "BP"

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            workload_by_name("nosuch")

    def test_flags(self):
        assert workload_by_name("LBM").memory_intensive
        assert workload_by_name("LC").low_occupancy
        assert not workload_by_name("BP").memory_intensive


class TestBuilding:
    def test_build_at_tiny_scale(self):
        built = build_workload("HS", scale="tiny")
        assert built.kernel.name == "hotspot"
        assert built.launch.total_threads == SCALES["tiny"].total_threads \
            if hasattr(SCALES["tiny"], "total_threads") else True

    def test_unknown_scale_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("HS", scale="gigantic")

    def test_scales_are_ordered(self):
        assert SCALES["tiny"].inner_iterations < SCALES["default"].inner_iterations

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_no_workload_overlaps_its_arrays(self, scale):
        # MemoryImage.bind_array raises on an overlapping bind.
        for spec in all_workloads():
            build_workload(spec.abbr, scale)


class TestOverlappingInputs:
    """MV's value and column arrays outgrow the 1 MiB between its fixed
    regions past 32 CTAs of 256 threads at 16 inner iterations.  Its
    layout then moves each later region up, so no bind overlaps another
    (``bind_array`` raises on one) and no row runs past its length."""

    @pytest.mark.parametrize("grid_dim", [33, 48])
    def test_mv_past_its_fixed_regions_lays_out_by_size(self, grid_dim):
        scale = ScaleConfig(
            f"mv{grid_dim}", grid_dim=grid_dim, cta_dim=256, inner_iterations=16
        )
        built = mv.build(scale)
        threads = grid_dim * 256
        words = (threads * 32, threads * 32, threads, 4096, threads)
        bases = mv.layout(scale)
        regions = sorted(zip(bases, words))
        for (start, count), (next_start, _) in zip(regions, regions[1:]):
            assert start + 4 * count <= next_start
        lengths = built.memory.read_array(bases[2], threads)
        assert lengths.max() <= 2 * scale.inner_iterations

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_mv_keeps_its_fixed_regions_at_every_scale(self, scale):
        assert mv.layout(SCALES[scale]) == (
            0x10_0000, 0x20_0000, 0x30_0000, 0x50_0000, 0x80_0000,
        )

    def test_mv_inside_its_regions_builds(self):
        scale = ScaleConfig("mv32", grid_dim=32, cta_dim=256, inner_iterations=16)
        assert mv.build(scale).launch.grid_dim == 32
