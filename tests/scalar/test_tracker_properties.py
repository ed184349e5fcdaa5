"""Property-based tests of the tracker's sidecar state machine.

Feed random (but well-formed) write/read event streams through the
tracker and check the invariants the hardware guarantees:

* enc soundness: after a non-divergent write, the stored prefix really
  is common to all lanes, and the base is lane 0's value;
* divergent writes always set D and store the writer's mask in the BVR;
* a divergent-scalar verdict implies the active lanes truly hold one
  value;
* decompress-moves are requested exactly when a divergent write hits a
  compressed (D=0, enc>0) register.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.gscalar import common_prefix_bytes
from repro.isa.opcodes import Opcode
from repro.scalar.eligibility import ScalarClass
from repro.simt.grid import int_to_mask

from tests.reference.classify import RegisterStateTracker
from tests.reference.trace import TraceEvent

WARP = 32
FULL = (1 << WARP) - 1
NUM_REGISTERS = 6


@st.composite
def event_streams(draw):
    """A list of write events over a small register set."""
    length = draw(st.integers(min_value=1, max_value=25))
    events = []
    # Lane values: mix scalar-ish and varying patterns.
    for _ in range(length):
        dst = draw(st.integers(min_value=0, max_value=NUM_REGISTERS - 1))
        src = draw(st.integers(min_value=0, max_value=NUM_REGISTERS - 1))
        mask = draw(
            st.sampled_from(
                [FULL, 0x55555555, 0x0000FFFF, 0xFFFF0000, 0x000000FF, 0x3]
            )
        )
        pattern = draw(st.sampled_from(["scalar", "affine", "random", "prefix"]))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        if pattern == "scalar":
            values = np.full(WARP, int(rng.integers(0, 2**32)), dtype=np.uint64)
        elif pattern == "affine":
            values = np.uint64(int(rng.integers(0, 2**24))) + 4 * np.arange(
                WARP, dtype=np.uint64
            )
        elif pattern == "prefix":
            values = np.uint64(int(rng.integers(0, 2**24)) << 8) + rng.integers(
                0, 256, size=WARP, dtype=np.uint64
            )
        else:
            values = rng.integers(0, 2**32, size=WARP, dtype=np.uint64)
        events.append(
            TraceEvent(
                opcode=Opcode.IADD,
                dst=dst,
                src_regs=(src, src),
                active_mask=mask,
                block_id=0,
                dst_values=(values & 0xFFFFFFFF).astype(np.uint32),
            )
        )
    return events


@settings(max_examples=150, deadline=None)
@given(stream=event_streams())
def test_enc_soundness_after_every_write(stream):
    tracker = RegisterStateTracker(NUM_REGISTERS, WARP)
    for event in stream:
        item = tracker.classify(event)
        state = tracker.state_of(event.dst)
        values = event.dst_values
        if event.active_mask == FULL:
            assert not state.divergent
            assert state.enc == common_prefix_bytes(values)
            assert state.base == int(values[0])
            # Half encodings are at least as fine as the full prefix.
            assert state.enc_lo >= state.enc
            assert state.enc_hi >= state.enc
        else:
            assert state.divergent
            assert state.base == event.active_mask  # BVR holds the mask
            mask = int_to_mask(event.active_mask, WARP)
            assert state.enc == common_prefix_bytes(values, mask)


@settings(max_examples=150, deadline=None)
@given(stream=event_streams())
def test_divergent_scalar_verdicts_are_true(stream):
    """If the tracker calls an instruction divergent-scalar, its source
    registers really hold one value across the active lanes."""
    tracker = RegisterStateTracker(NUM_REGISTERS, WARP)
    last_values: dict[int, np.ndarray] = {}
    for event in stream:
        item = tracker.classify(event)
        if item.scalar_class is ScalarClass.DIVERGENT_SCALAR:
            mask = int_to_mask(event.active_mask, WARP)
            for register in event.src_regs:
                if register in last_values:
                    active = last_values[register][mask]
                    assert np.all(active == active[0])
        if event.dst is not None:
            merged = last_values.get(event.dst, np.zeros(WARP, dtype=np.uint32))
            mask = int_to_mask(event.active_mask, WARP)
            merged = np.where(mask, event.dst_values, merged)
            last_values[event.dst] = merged


@settings(max_examples=150, deadline=None)
@given(stream=event_streams())
def test_decompress_move_iff_compressed_destination(stream):
    tracker = RegisterStateTracker(NUM_REGISTERS, WARP)
    for event in stream:
        before = tracker.state_of(event.dst)
        item = tracker.classify(event)
        divergent = event.active_mask != FULL
        expected = divergent and not before.divergent and before.enc > 0
        assert item.needs_decompress_move == expected


@settings(max_examples=100, deadline=None)
@given(stream=event_streams())
def test_full_scalar_flag_consistency(stream):
    tracker = RegisterStateTracker(NUM_REGISTERS, WARP)
    for event in stream:
        tracker.classify(event)
        state = tracker.state_of(event.dst)
        if not state.divergent and state.full_scalar:
            assert state.enc == 4
            assert state.enc_lo == 4 and state.enc_hi == 4
            assert state.base_lo == state.base_hi
