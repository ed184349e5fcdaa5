"""The lockstep executor against the per-warp reference executor.

``repro.simt.executor.run_kernel`` runs warps at the same program point
together and replays a launch in reference order when its warps share
a written word.  Every test here runs a launch through it and through
``tests.reference.executor.run_kernel`` on identical memory images and
requires the same trace (array for array, dtypes included), the same
final global memory, and the same exception for a failing launch.
The ``lockstep_replays`` telemetry counter shows which path ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError, MemoryError_
from repro.isa import KernelBuilder
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.kernel import BasicBlock, Branch, Jump, Kernel
from repro.isa.opcodes import Opcode
from repro.obs.telemetry import telemetry_session
from repro.simt import LaunchConfig, MemoryImage, run_kernel
from repro.workloads.registry import all_workloads, build_workload

from tests.reference import executor as reference
from tests.simt.test_columnar import assert_columnar_identical

_OUT = 0x3000
_WORD = 0x5000


def _run_both(kernel, launch, make_memory, warp_size=32, **kwargs):
    """Both engines on fresh images; returns (trace, replays, memory)."""
    memory = make_memory()
    expected_memory = make_memory()
    with telemetry_session() as telemetry:
        trace = run_kernel(kernel, launch, memory, warp_size=warp_size, **kwargs)
    expected = reference.run_kernel(
        kernel, launch, expected_memory, warp_size=warp_size, **kwargs
    )
    assert_columnar_identical(expected, trace)
    assert_images_equal(expected_memory, memory)
    return trace, telemetry.counter_value("lockstep_replays"), memory


def assert_images_equal(expected: MemoryImage, actual: MemoryImage) -> None:
    want, got = expected.snapshot(), actual.snapshot()
    assert sorted(got) == sorted(want)
    for page in want:
        assert np.array_equal(got[page], want[page]), page


@pytest.mark.parametrize("warp_size", [32, 64])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("abbr", [spec.abbr for spec in all_workloads()])
def test_workload_matches_reference(abbr, scale, warp_size):
    built = build_workload(abbr, scale)
    _, replays, _ = _run_both(
        built.kernel,
        built.launch,
        lambda: build_workload(abbr, scale).memory,
        warp_size=warp_size,
    )
    # MG's gridding scatter makes warps store to one word; no other
    # workload communicates between warps.  At tiny scale and warp size
    # 64, MG's single warp has no one to collide with.
    single_warp = built.launch.total_warps(warp_size) == 1
    assert replays == (abbr == "MG" and not single_warp)


def _kernel(build) -> Kernel:
    b = KernelBuilder("hand")
    build(b)
    return b.finish()


class TestHazards:
    def test_cross_warp_read_after_write_global(self):
        # Warp 1 stores the word warp 0 loads, in one barrier interval.
        # In reference order warp 0 loads first; in lockstep warp 1's
        # taken branch (the lower block) would store first.
        def build(b):
            with b.if_(b.seteq(b.warp_in_cta(), 1)):
                b.st_global(_WORD, b.mov(7))
            b.st_global(b.imad(b.tid(), 4, _OUT), b.ld_global(_WORD))

        _, replays, memory = _run_both(
            _kernel(build), LaunchConfig(1, 64), MemoryImage
        )
        assert replays == 1
        out = memory.read_array(_OUT, 64)
        assert out[:32].tolist() == [0] * 32 and out[32:].tolist() == [7] * 32

    def test_cross_cta_read_after_write(self):
        # Every warp loads the word, then CTA 0 stores to it: CTA 1's
        # warps read CTA 0's store only in reference order.
        def build(b):
            value = b.ld_global(_WORD)
            b.st_global(b.imad(b.tid(), 4, _OUT), value)
            with b.if_(b.seteq(b.ctaid(), 0)):
                b.st_global(_WORD, b.iadd(value, 1))

        _, replays, memory = _run_both(
            _kernel(build), LaunchConfig(2, 32), MemoryImage
        )
        assert replays == 1
        assert memory.read_array(_OUT, 64)[32:].tolist() == [1] * 32

    def test_cross_warp_write_after_write_shared(self):
        def build(b):
            b.st_shared(0, b.warp_in_cta())
            b.barrier()
            b.st_global(b.imad(b.tid(), 4, _OUT), b.ld_shared(0))

        _, replays, memory = _run_both(
            _kernel(build), LaunchConfig(1, 96), MemoryImage
        )
        assert replays == 1
        assert memory.read_array(_OUT, 96).tolist() == [2] * 96

    def test_shared_exchange_across_barrier_runs_lockstep(self):
        def build(b):
            slot = b.imul(b.iadd(b.imul(b.warp_in_cta(), 32), b.lane()), 4)
            b.st_shared(slot, b.tid())
            b.barrier()
            partner = b.imul(b.xor(b.iadd(b.imul(b.warp_in_cta(), 32), b.lane()), 32), 4)
            b.st_global(b.imad(b.tid(), 4, _OUT), b.ld_shared(partner))

        _, replays, memory = _run_both(
            _kernel(build), LaunchConfig(2, 64), MemoryImage
        )
        assert replays == 0
        expected = np.arange(128).reshape(2, 2, 32)[:, ::-1].reshape(-1)
        assert np.array_equal(memory.read_array(_OUT, 128), expected)

    def test_intra_warp_colliding_stores_highest_lane_wins(self):
        def build(b):
            warp = b.iadd(b.imul(b.ctaid(), 2), b.warp_in_cta())
            b.st_global(b.imad(warp, 4, _WORD), b.lane())

        _, replays, memory = _run_both(
            _kernel(build), LaunchConfig(2, 64), MemoryImage
        )
        assert replays == 0
        assert memory.read_array(_WORD, 4).tolist() == [31] * 4


def empty_body_loop() -> Kernel:
    """``r0 = 1`` then a body-less block branching to itself forever."""
    return Kernel(
        name="spin",
        blocks=[
            BasicBlock(0, [Instruction(Opcode.MOV, Reg(0), (Imm(1),))], Jump(1)),
            BasicBlock(1, [], Branch(cond=Reg(0), taken=1, not_taken=2)),
            BasicBlock(2, []),
        ],
    )


def _divergent_barrier(b):
    with b.if_(b.setlt(b.tid(), 16)):
        b.barrier()


def _uneven_barrier(b):
    with b.if_(b.seteq(b.warp_in_cta(), 1)):
        b.barrier()


class TestErrors:
    @pytest.mark.parametrize(
        "kernel, launch, kwargs",
        [
            (empty_body_loop(), LaunchConfig(2, 64), {"max_warp_instructions": 1000}),
            (_kernel(_divergent_barrier), LaunchConfig(2, 64), {}),
            (_kernel(_uneven_barrier), LaunchConfig(2, 96), {}),
        ],
        ids=["runaway", "divergent-barrier", "barrier-divergence"],
    )
    def test_same_exception_as_reference(self, kernel, launch, kwargs):
        with pytest.raises(ExecutionError) as expected:
            reference.run_kernel(kernel, launch, MemoryImage(), **kwargs)
        with pytest.raises(ExecutionError) as actual:
            run_kernel(kernel, launch, MemoryImage(), **kwargs)
        assert str(actual.value) == str(expected.value)

    def test_strict_unmapped_read(self):
        def build(b):
            tid = b.tid()
            b.st_global(b.imad(tid, 4, _OUT), b.ld_global(b.imad(tid, 4, 0x2_0000 - 64)))

        def strict():
            memory = MemoryImage(strict=True)
            memory.bind_array(0x2_0000 - 64, np.arange(16, dtype=np.uint32))
            return memory

        kernel = _kernel(build)
        with pytest.raises(MemoryError_) as expected:
            reference.run_kernel(kernel, LaunchConfig(2, 64), strict())
        with pytest.raises(MemoryError_) as actual:
            run_kernel(kernel, LaunchConfig(2, 64), strict())
        assert str(actual.value) == str(expected.value)
        assert "0x20000" in str(actual.value)

    def test_strict_image_runs_in_reference_order(self):
        # CTA 1 creates a page that every warp then reads.  In reference
        # order CTA 0 reads it first, before it exists, and faults.
        def build(b):
            with b.if_(b.seteq(b.ctaid(), 1)):
                b.st_global(0x7_0000, b.mov(1))
            b.st_global(b.imad(b.tid(), 4, 0x1_0000), b.ld_global(0x7_0004))

        def strict():
            memory = MemoryImage(strict=True)
            memory.bind_array(0x1_0000, np.zeros(64, dtype=np.uint32))
            return memory

        kernel = _kernel(build)
        with pytest.raises(MemoryError_) as expected:
            reference.run_kernel(kernel, LaunchConfig(2, 32), strict())
        with pytest.raises(MemoryError_) as actual:
            run_kernel(kernel, LaunchConfig(2, 32), strict())
        assert str(actual.value) == str(expected.value)


class TestTelemetry:
    def test_bp_groups_warps_without_replay(self):
        built = build_workload("BP", "small")
        with telemetry_session() as telemetry:
            trace = run_kernel(built.kernel, built.launch, built.memory)
        assert telemetry.counter_value("lockstep_replays") == 0
        steps = telemetry.counter_value("lockstep_steps")
        assert 0 < steps <= trace.num_events / 10
        groups = [span for span in telemetry.spans if span.cat == "warp"]
        assert max(len(span.args["warps"]) for span in groups) == trace.num_warps

    def test_mg_replays_once(self):
        built = build_workload("MG", "small")
        with telemetry_session() as telemetry:
            trace = run_kernel(built.kernel, built.launch, built.memory)
        assert telemetry.counter_value("lockstep_replays") == 1
        # The replay's groups are single warps: one step per event.
        assert telemetry.counter_value("lockstep_steps") == trace.num_events
