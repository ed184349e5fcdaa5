"""Tests for cache-content fingerprints."""

import dataclasses

import numpy as np
import pytest

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments import cachekey
from repro.experiments.runner import WARP_SIZE, ExperimentRunner
from repro.isa import KernelBuilder
from repro.isa.instructions import Imm, Reg, SpecialReg
from repro.isa.kernel import Branch
from repro.isa.opcodes import Opcode
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.simt.grid import LaunchConfig
from repro.simt.memory_state import MemoryImage
from repro.workloads import datagen, registry
from repro.workloads.registry import SCALES, workload_by_name
from repro.workloads.rodinia import lc


def build_hs():
    return workload_by_name("HS").builder(SCALES["tiny"])


@pytest.fixture(scope="module")
def hs_built():
    return build_hs()


@pytest.fixture(scope="module")
def hs_kernel(hs_built):
    return hs_built.kernel


def probe_kernel():
    """``mov %tid``, an immediate add, a branch, a jump and a store."""
    b = KernelBuilder("probe")
    x = b.iadd(b.tid(), 5)
    with b.if_(b.setne(x, 0)):
        b.imul(x, 3, dst=x)
    b.st_global(b.mov(0x100), x)
    return b.finish()


def _replace_first(kernel, predicate, **changes):
    """Replace the first body instruction matching ``predicate``."""
    for block in kernel.blocks:
        for index, inst in enumerate(block.instructions):
            if predicate(inst):
                block.instructions[index] = dataclasses.replace(inst, **changes)
                return
    raise AssertionError("no instruction matched")


def _edit_opcode(kernel):
    _replace_first(kernel, lambda i: i.opcode is Opcode.IADD, opcode=Opcode.ISUB)


def _edit_destination(kernel):
    _replace_first(kernel, lambda i: i.opcode is Opcode.IADD, dst=Reg(3))


def _edit_immediate(kernel):
    inst = next(i for b in kernel.blocks for i in b.instructions if i.opcode is Opcode.IADD)
    _replace_first(kernel, lambda i: i is inst, srcs=(inst.srcs[0], Imm(6)))


def _edit_special_register(kernel):
    _replace_first(
        kernel, lambda i: SpecialReg.TID in i.srcs, srcs=(SpecialReg.LANE,)
    )


def _edit_branch_target(kernel):
    block = next(b for b in kernel.blocks if isinstance(b.terminator, Branch))
    term = block.terminator
    block.terminator = Branch(term.cond, taken=term.not_taken, not_taken=term.taken)


def _edit_block_id(kernel):
    kernel.blocks[-1].block_id += 10


def _edit_name(kernel):
    kernel.name = "probe2"


def _edit_num_registers(kernel):
    kernel.num_registers += 1


class TestKernelFingerprint:
    def test_stable_across_rebuilds(self, hs_kernel):
        rebuilt = workload_by_name("HS").builder(SCALES["tiny"]).kernel
        assert cachekey.kernel_fingerprint(hs_kernel) == cachekey.kernel_fingerprint(
            rebuilt
        )

    def test_different_kernels_differ(self, hs_kernel):
        other = workload_by_name("BP").builder(SCALES["tiny"]).kernel
        assert cachekey.kernel_fingerprint(hs_kernel) != cachekey.kernel_fingerprint(
            other
        )

    def test_kernel_edit_changes_fingerprint(self, hs_kernel):
        before = cachekey.kernel_fingerprint(hs_kernel)
        block = hs_kernel.blocks[0]
        removed = block.instructions.pop()
        try:
            after = cachekey.kernel_fingerprint(hs_kernel)
        finally:
            block.instructions.append(removed)
        assert before != after

    @pytest.mark.parametrize(
        "edit",
        [
            _edit_opcode,
            _edit_destination,
            _edit_immediate,
            _edit_special_register,
            _edit_branch_target,
            _edit_block_id,
            _edit_name,
            _edit_num_registers,
        ],
        ids=lambda edit: edit.__name__.removeprefix("_edit_"),
    )
    def test_each_field_enters_the_key(self, edit):
        """One edit to any field of the kernel's static content moves
        its fingerprint."""
        kernel = probe_kernel()
        before = cachekey.kernel_fingerprint(kernel)
        assert cachekey.kernel_fingerprint(probe_kernel()) == before
        edit(kernel)
        assert cachekey.kernel_fingerprint(kernel) != before


class TestTraceFingerprint:
    def test_scale_and_warp_size_enter_the_key(self, hs_built):
        tiny32 = cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 32)
        tiny64 = cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 64)
        small32 = cachekey.trace_fingerprint(hs_built, SCALES["small"], 32)
        assert len({tiny32, tiny64, small32}) == 3

    def test_digest_shape(self, hs_built):
        digest = cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 32)
        assert len(digest) == cachekey.DIGEST_CHARS
        int(digest, 16)  # hex

    def test_two_builds_agree(self, hs_built):
        assert cachekey.trace_fingerprint(
            build_hs(), SCALES["tiny"], 32
        ) == cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 32)

    def test_launch_enters_the_key(self, hs_built):
        launch = hs_built.launch
        wider = dataclasses.replace(
            hs_built, launch=LaunchConfig(launch.grid_dim, launch.cta_dim + 32)
        )
        assert cachekey.trace_fingerprint(
            wider, SCALES["tiny"], 32
        ) != cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 32)

    def test_one_bound_word_enters_the_key(self, hs_built, monkeypatch):
        """Flipping one bit of the first word the workload binds moves
        the key."""
        bind = MemoryImage.bind_array
        flipped = []

        def flip_first_word(self, base_addr, values):
            words = np.ascontiguousarray(values).reshape(-1).view(np.uint32).copy()
            if not flipped:
                words[0] ^= 1
                flipped.append(base_addr)
            bind(self, base_addr, words)

        monkeypatch.setattr(MemoryImage, "bind_array", flip_first_word)
        edited = build_hs()
        assert flipped
        assert cachekey.trace_fingerprint(
            edited, SCALES["tiny"], 32
        ) != cachekey.trace_fingerprint(hs_built, SCALES["tiny"], 32)


class TestStageFingerprint:
    def test_architecture_and_energy_enter_the_key(self):
        config = GpuConfig()
        base = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), config, DEFAULT_ENERGY, 1
        )
        other_arch = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.baseline(), config, DEFAULT_ENERGY, 1
        )
        other_energy = cachekey.stage_fingerprint(
            "abc",
            ArchitectureConfig.gscalar(),
            config,
            EnergyParams(alu_lane_pj=99.0),
            1,
        )
        other_version = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), config, DEFAULT_ENERGY, 2
        )
        assert len({base, other_arch, other_energy, other_version}) == 4

    def test_stable_across_equal_inputs(self):
        first = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), GpuConfig(), EnergyParams(), 1
        )
        second = cachekey.stage_fingerprint(
            "abc", ArchitectureConfig.gscalar(), GpuConfig(), EnergyParams(), 1
        )
        assert first == second

    @pytest.mark.parametrize("repeat", range(2))
    def test_digests_are_pinned(self, repeat):
        """The per-value configuration text hashes to the same digests
        as one ``json.dumps`` of every part, on first and later use."""
        assert (
            cachekey.stage_fingerprint(
                "abc", ArchitectureConfig.gscalar(), GpuConfig(), DEFAULT_ENERGY, 1
            )
            == "8bd077253af788a0"
        )
        assert (
            cachekey.summary_fingerprint("abc", "fig1", DEFAULT_ENERGY, 8, 1)
            == "d7b83daddd4b90f4"
        )

    def test_equal_values_that_encode_differently_keep_their_keys(self):
        as_int = EnergyParams(alu_lane_pj=26)
        as_float = EnergyParams(alu_lane_pj=26.0)
        assert as_int == as_float
        assert cachekey.summary_fingerprint(
            "abc", "fig1", as_float, 8, 1
        ) != cachekey.summary_fingerprint("abc", "fig1", as_int, 8, 1)


def lc_with_flag_density(density):
    """LC's builder, with its per-thread flags drawn at ``density``."""
    pattern = datagen.boundary_mask_pattern

    def build(scale):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                datagen,
                "boundary_mask_pattern",
                lambda count, _density, seed: pattern(count, density, seed),
            )
            return lc.build(scale)

    return build


class TestRunnerKeys:
    def test_execution_leaves_the_trace_key_alone(self):
        """The memory digest describes the image as built, so the key a
        runner derives after executing HS is a fresh runner's."""
        executed = ExperimentRunner(scale="tiny")
        pages = executed.run("HS").built.memory.snapshot()
        built_pages = build_hs().memory.snapshot()
        assert any(
            not np.array_equal(page, built_pages.get(index))
            for index, page in pages.items()
        )
        assert executed._trace_fingerprint("HS") == ExperimentRunner(
            scale="tiny"
        )._trace_fingerprint("HS")
        assert executed._trace_fingerprint("HS") == cachekey.trace_fingerprint(
            build_hs(), SCALES["tiny"], WARP_SIZE
        )

    def test_edited_inputs_recompute_exactly_their_entry(self, tmp_path, monkeypatch):
        """Binding LC's flags at another density invalidates LC's entry
        and no other, and the recomputed summary is a cache-less
        runner's."""
        cold = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        names = cold.benchmark_names()
        original = {abbr: cold.summary(abbr, "counts") for abbr in names}
        registry.all_workloads()
        spec = registry._REGISTRY["lc"]
        monkeypatch.setitem(
            registry._REGISTRY,
            "lc",
            dataclasses.replace(spec, builder=lc_with_flag_density(0.2)),
        )

        warm = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        edited = {abbr: warm.summary(abbr, "counts") for abbr in names}
        assert warm.stats.counters == {
            "cache_invalid": 1,
            "summary_cache_hits": len(names) - 1,
            "summary_cache_misses": 1,
            "trace_executions": 1,
        }
        fresh = ExperimentRunner(scale="tiny").summary("LC", "counts")
        assert edited["LC"] == fresh
        assert edited["LC"] != original["LC"]
        assert {a: s for a, s in edited.items() if a != "LC"} == {
            a: s for a, s in original.items() if a != "LC"
        }
