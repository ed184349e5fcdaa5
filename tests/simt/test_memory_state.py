"""Unit tests for the functional memory image."""

import pickle

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.simt.memory_state import MemoryImage


class TestArrayBinding:
    def test_uint32_round_trip(self):
        memory = MemoryImage()
        data = np.arange(10, dtype=np.uint32)
        memory.bind_array(0x100, data)
        assert np.array_equal(memory.read_array(0x100, 10), data)

    def test_float32_bit_pattern_round_trip(self):
        memory = MemoryImage()
        data = np.array([1.5, -2.25, 0.0], dtype=np.float32)
        memory.bind_array(0x200, data)
        assert np.array_equal(memory.read_array(0x200, 3, dtype=np.float32), data)

    def test_unaligned_base_rejected(self):
        memory = MemoryImage()
        with pytest.raises(MemoryError_):
            memory.bind_array(0x101, np.zeros(1, dtype=np.uint32))

    def test_array_straddling_page_boundary(self):
        memory = MemoryImage()
        data = np.arange(1000, 1100, dtype=np.uint32)
        base = 0x1_0000 - 40 * 4  # 40 words before the 64 KB boundary
        memory.bind_array(base, data)
        assert memory.mapped_bytes == 2 * 64 * 1024
        assert np.array_equal(memory.read_array(base, 100), data)
        assert np.array_equal(memory.read_array(base + 39 * 4, 2), data[39:41])

    def test_strict_read_names_first_unmapped_address(self):
        memory = MemoryImage(strict=True)
        memory.bind_array(0x1_0000 - 8, np.ones(2, dtype=np.uint32))
        assert memory.read_array(0x1_0000 - 8, 2).tolist() == [1, 1]
        with pytest.raises(MemoryError_, match="unmapped word address 0x10000$"):
            memory.read_array(0x1_0000 - 8, 4)

    def test_unsupported_dtype_rejected(self):
        memory = MemoryImage()
        with pytest.raises(MemoryError_):
            memory.bind_array(0x100, np.zeros(4, dtype=np.float64))

    def test_overlapping_bind_names_both_ranges(self):
        memory = MemoryImage()
        memory.bind_array(0x100, np.zeros(4, dtype=np.uint32))
        with pytest.raises(
            MemoryError_,
            match=r"bind of \[0x10c, 0x114\) overlaps the earlier bind of "
            r"\[0x100, 0x110\)",
        ):
            memory.bind_array(0x10C, np.ones(2, dtype=np.uint32))
        # The rejected bind wrote nothing.
        assert memory.read_array(0x10C, 2).tolist() == [0, 0]

    def test_bind_inside_an_earlier_bind_raises(self):
        memory = MemoryImage()
        memory.bind_array(0x100, np.zeros(16, dtype=np.uint32))
        with pytest.raises(MemoryError_, match="overlaps"):
            memory.bind_array(0x120, np.ones(1, dtype=np.uint32))

    def test_adjacent_and_empty_binds_pass(self):
        memory = MemoryImage()
        memory.bind_array(0x100, np.arange(4, dtype=np.uint32))
        memory.bind_array(0x110, np.arange(4, 8, dtype=np.uint32))
        memory.bind_array(0xF0, np.arange(4, dtype=np.uint32))
        memory.bind_array(0x104, np.zeros(0, dtype=np.uint32))
        assert memory.read_array(0x100, 8).tolist() == list(range(8))


class TestVectorAccess:
    def test_masked_load(self):
        memory = MemoryImage()
        memory.bind_array(0, np.array([10, 20, 30, 40], dtype=np.uint32))
        addrs = np.array([0, 4, 8, 12], dtype=np.uint32)
        mask = np.array([True, False, True, False])
        values = memory.load(addrs, mask)
        assert values[0] == 10
        assert values[2] == 30
        assert values[1] == 0  # inactive lane reads as zero

    def test_masked_store(self):
        memory = MemoryImage()
        addrs = np.array([0, 4], dtype=np.uint32)
        memory.store(addrs, np.array([7, 9], dtype=np.uint32), np.array([True, False]))
        assert memory.read_array(0, 2)[0] == 7
        assert memory.read_array(0, 2)[1] == 0

    def test_colliding_stores_highest_lane_wins(self):
        memory = MemoryImage()
        addrs = np.array([0, 0, 0], dtype=np.uint32)
        memory.store(
            addrs, np.array([1, 2, 3], dtype=np.uint32), np.ones(3, dtype=bool)
        )
        assert memory.read_array(0, 1)[0] == 3

    def test_strict_mode_raises_on_unmapped(self):
        memory = MemoryImage(strict=True)
        with pytest.raises(MemoryError_):
            memory.load(np.array([0x5000], dtype=np.uint32), np.array([True]))

    def test_lenient_mode_reads_zero(self):
        memory = MemoryImage()
        values = memory.load(np.array([0x5000], dtype=np.uint32), np.array([True]))
        assert values[0] == 0

    def test_mapped_bytes_grows_lazily(self):
        memory = MemoryImage()
        assert memory.mapped_bytes == 0
        memory.bind_array(0, np.zeros(1, dtype=np.uint32))
        assert memory.mapped_bytes > 0


def _bound(*binds, strict=False):
    memory = MemoryImage(strict=strict)
    for base, words in binds:
        memory.bind_array(base, np.array(words, dtype=np.uint32))
    return memory


class TestBindDigest:
    def test_equal_binds_agree(self):
        assert _bound((0x100, [1, 2, 3])).bind_digest == _bound(
            (0x100, [1, 2, 3])
        ).bind_digest

    @pytest.mark.parametrize(
        "other",
        [
            _bound((0x100, [1, 2, 4])),
            _bound((0x104, [1, 2, 3])),
            _bound((0x100, [1, 2, 3, 0])),
            _bound((0x100, [1, 2, 3]), strict=True),
        ],
        ids=["word", "base", "count", "strict"],
    )
    def test_each_part_of_a_bind_enters_the_digest(self, other):
        assert other.bind_digest != _bound((0x100, [1, 2, 3])).bind_digest

    def test_float_arrays_hash_their_bit_patterns(self):
        floats = MemoryImage()
        floats.bind_array(0, np.array([1.0], dtype=np.float32))
        assert floats.bind_digest == _bound((0, [0x3F800000])).bind_digest

    def test_execution_writes_leave_it_alone(self):
        memory = _bound((0x100, [1, 2, 3]))
        before = memory.bind_digest
        memory.store(
            np.array([0x100, 0x200], dtype=np.uint32),
            np.array([9, 9], dtype=np.uint32),
            np.ones(2, dtype=bool),
        )
        memory.scatter(np.array([0x100], dtype=np.int64), np.array([7], dtype=np.uint32))
        assert memory.read_array(0x100, 1)[0] == 9
        assert memory.bind_digest == before

    def test_image_still_pickles(self):
        memory = _bound((0x100, [1, 2, 3]))
        assert pickle.loads(pickle.dumps(memory)).bind_digest == memory.bind_digest
