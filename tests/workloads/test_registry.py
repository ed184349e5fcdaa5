"""Tests for the benchmark registry."""

import pytest

from repro.errors import MemoryError_, WorkloadError
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
    """MV's fixed regions hold 32 rows of 256 threads: one CTA more
    binds ``_COLUMNS`` over ``_ROW_LENGTHS``, which then runs rows for
    up to 4,095 trips unless the bind raises."""

    def test_mv_past_its_regions_raises(self):
        scale = ScaleConfig("mv33", grid_dim=33, cta_dim=256, inner_iterations=16)
        with pytest.raises(MemoryError_, match=r"overlaps the earlier bind of \[0x300000"):
            mv.build(scale)

    def test_mv_inside_its_regions_builds(self):
        scale = ScaleConfig("mv32", grid_dim=32, cta_dim=256, inner_iterations=16)
        assert mv.build(scale).launch.grid_dim == 32
