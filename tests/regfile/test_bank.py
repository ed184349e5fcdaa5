"""Structural tests: real values through real byte-rotated arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError

from tests.reference.regfile_bank import RegisterBank


class TestCompressedWrites:
    def test_scalar_round_trip(self):
        bank = RegisterBank()
        record = bank.write_compressed(0, np.full(32, 0xDEADBEEF, dtype=np.uint32))
        assert record.data_arrays == 0  # scalar: only the sidecar
        values, read_record = bank.read(0)
        assert np.array_equal(values, np.full(32, 0xDEADBEEF, dtype=np.uint32))
        assert read_record.data_arrays == 0
        assert bank.is_scalar(0)

    def test_three_byte_round_trip(self):
        bank = RegisterBank()
        values = np.uint32(0xC04039C0) + np.arange(0, 64, 2, dtype=np.uint32)
        record = bank.write_compressed(3, values)
        assert record.data_arrays == 2
        out, _ = bank.read(3)
        assert np.array_equal(out, values)

    def test_uncompressible_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**32, size=32, dtype=np.uint64).astype(np.uint32)
        bank = RegisterBank()
        record = bank.write_compressed(5, values)
        assert record.data_arrays == 8
        out, _ = bank.read(5)
        assert np.array_equal(out, values)

    def test_register_out_of_range(self):
        bank = RegisterBank(num_registers=4)
        with pytest.raises(ConfigError):
            bank.read(4)


class TestDivergentWrites:
    def test_partial_update_preserves_inactive_lanes(self):
        bank = RegisterBank()
        original = np.arange(32, dtype=np.uint32) + 0x1000  # not compressed (enc 0? )
        # Force an uncompressed starting state via random values.
        rng = np.random.default_rng(3)
        original = rng.integers(0, 2**32, size=32, dtype=np.uint64).astype(np.uint32)
        bank.write_compressed(1, original)
        mask = np.zeros(32, dtype=bool)
        mask[::2] = True
        update = np.full(32, 0xAA55AA55, dtype=np.uint32)
        record = bank.write_divergent(1, update, mask)
        assert record.data_arrays == 8
        out, _ = bank.read(1)
        assert np.array_equal(out[::2], update[::2])
        assert np.array_equal(out[1::2], original[1::2])

    def test_divergent_write_to_compressed_register_requires_move(self):
        bank = RegisterBank()
        bank.write_compressed(2, np.full(32, 9, dtype=np.uint32))  # scalar: enc 4
        mask = np.ones(32, dtype=bool)
        mask[0] = False
        with pytest.raises(ConfigError, match="decompress"):
            bank.write_divergent(2, np.zeros(32, dtype=np.uint32), mask)
        bank.decompress_in_place(2)
        bank.write_divergent(2, np.zeros(32, dtype=np.uint32), mask)
        out, _ = bank.read(2)
        assert out[0] == 9  # inactive lane kept the old scalar value
        assert not out[1:].any()

    def test_divergent_sidecar_holds_mask_and_active_enc(self):
        bank = RegisterBank()
        rng = np.random.default_rng(5)
        bank.write_compressed(
            0, rng.integers(0, 2**32, size=32, dtype=np.uint64).astype(np.uint32)
        )
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        bank.write_divergent(0, np.full(32, 3, dtype=np.uint32), mask)
        enc, divergent, bvr = bank.encoding_of(0)
        assert divergent
        assert enc == 4  # active lanes all hold 3
        assert bvr == 0xF  # the active mask
        assert not bank.is_scalar(0)  # D=1 blocks plain scalar reads


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=32, max_size=32
    ).map(lambda xs: np.array(xs, dtype=np.uint32))
)
def test_structural_round_trip_property(values):
    """Any register value survives the rotated-array store/load path."""
    bank = RegisterBank()
    bank.write_compressed(7, values)
    out, _ = bank.read(7)
    assert np.array_equal(out, values)
