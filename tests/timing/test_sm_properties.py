"""Property-based fuzzing of the SM timing model.

Random well-formed op streams must always complete (no deadlocks), the
instruction accounting must balance, and cycle counts must respect
simple lower bounds (issue width, dispatch occupancy).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GpuConfig
from repro.isa.opcodes import OpCategory
from repro.timing.ops import SCALAR_RF_BANK

from tests.reference.sm import SmSimulator
from tests.reference.timing import TimingOp

CONFIG = GpuConfig()

#: Register ids reach past one 64-bit word of a scoreboard mask, and
#: registers 16 apart share a bank.
MAX_REGISTER = 200

#: Few enough coalesced segments that accesses reuse them (L1 hits).
SEGMENTS = st.lists(
    st.integers(min_value=0, max_value=11), min_size=1, max_size=3, unique=True
).map(lambda segments: tuple(sorted(segments)))


@st.composite
def random_ops(draw):
    """One warp's op list with realistic dependencies.

    Sources read live registers; a source's bank is ``r % 16`` or, now
    and then, the single scalar-RF bank (:data:`SCALAR_RF_BANK`).
    """
    length = draw(st.integers(min_value=0, max_value=15))
    ops = []
    live = [0]

    def banks(srcs):
        return tuple(
            SCALAR_RF_BANK if draw(st.integers(0, 3)) == 0 else r % 16 for r in srcs
        )

    for _ in range(length):
        kind = draw(st.sampled_from(["alu", "sfu", "mem", "ctrl", "store"]))
        srcs = tuple(
            draw(st.sampled_from(live))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        )
        dst = draw(st.integers(min_value=0, max_value=MAX_REGISTER))
        if kind == "store":
            ops.append(
                TimingOp(
                    category=OpCategory.MEM,
                    dst=None,
                    src_regs=srcs,
                    src_banks=banks(srcs),
                    dispatch_cycles=2,
                    long_latency=False,
                    is_store=True,
                    mem_segments=draw(SEGMENTS),
                )
            )
            continue
        if kind == "ctrl":
            ops.append(
                TimingOp(
                    category=OpCategory.CTRL,
                    dst=None,
                    src_regs=srcs[:1],
                    src_banks=banks(srcs[:1]),
                    dispatch_cycles=1,
                    long_latency=False,
                    is_store=False,
                )
            )
            continue
        category = {
            "alu": OpCategory.ALU,
            "sfu": OpCategory.SFU,
            "mem": OpCategory.MEM,
        }[kind]
        segments = draw(SEGMENTS) if kind == "mem" else ()
        ops.append(
            TimingOp(
                category=category,
                dst=dst,
                src_regs=srcs,
                src_banks=banks(srcs),
                dispatch_cycles=8 if kind == "sfu" else 2,
                long_latency=draw(st.booleans()) if kind == "alu" else False,
                is_store=False,
                mem_segments=segments,
            )
        )
        live.append(dst)
    return ops


@settings(max_examples=60, deadline=None)
@given(warps=st.lists(random_ops(), min_size=0, max_size=6))
def test_simulation_always_completes(warps):
    result = SmSimulator(warps, CONFIG).run(max_cycles=2_000_000)
    total_ops = sum(len(w) for w in warps)
    assert result.instructions == total_ops
    assert result.useful_instructions == total_ops


@settings(max_examples=60, deadline=None)
@given(warps=st.lists(random_ops(), min_size=1, max_size=4))
def test_cycle_lower_bounds(warps):
    result = SmSimulator(warps, CONFIG).run(max_cycles=2_000_000)
    total_ops = sum(len(w) for w in warps)
    if total_ops:
        # At most 2 issues per cycle.
        assert result.cycles >= total_ops / 2
        # Extra latency can never reduce total ops completed.
        stretched = SmSimulator(warps, CONFIG, extra_latency=5).run(
            max_cycles=2_000_000
        )
        assert stretched.instructions == total_ops


@settings(max_examples=40, deadline=None)
@given(
    warps=st.lists(random_ops(), min_size=2, max_size=4),
    warps_per_cta=st.sampled_from([1, 2]),
)
def test_uniform_barriers_never_deadlock(warps, warps_per_cta):
    """Appending the same barrier count to every warp keeps the CTA
    well-formed, so the simulation must always finish."""
    barrier = TimingOp(
        category=OpCategory.CTRL,
        dst=None,
        src_regs=(),
        src_banks=(),
        dispatch_cycles=1,
        long_latency=False,
        is_store=False,
        is_barrier=True,
    )
    with_barriers = [list(w) + [barrier] for w in warps]
    result = SmSimulator(
        with_barriers, CONFIG, warps_per_cta=warps_per_cta
    ).run(max_cycles=2_000_000)
    assert result.instructions == sum(len(w) for w in with_barriers)
