"""Functional memory for the trace-driven executor.

:class:`MemoryImage` models a flat, word-addressed (4-byte) address
space backed by lazily-allocated pages of uint32.  Workloads bind numpy
arrays at base addresses before launch and read results back after;
loads and stores take per-lane byte addresses and a lane mask.  Every
access is a page-table gather or scatter: the words are split by page
(almost always one) and each page is indexed once.

Unwritten memory reads as zero by default (``strict=False``) or raises
(``strict=True``) — strict mode is useful in tests to catch address
bugs in workload kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import MemoryError_

_PAGE_SHIFT = 14
_PAGE_WORDS = 1 << _PAGE_SHIFT  # 64 KB pages
_OFFSET_MASK = _PAGE_WORDS - 1


def _page_groups(words: np.ndarray):
    """``(page index, selector)`` for each page the words fall in."""
    pages = words >> _PAGE_SHIFT
    low = int(pages.min())
    if low == int(pages.max()):
        return ((low, slice(None)),)
    return ((int(page), pages == page) for page in np.unique(pages))


class MemoryImage:
    """A sparse 32-bit word-addressable functional memory."""

    def __init__(self, strict: bool = False):
        self._pages: dict[int, np.ndarray] = {}
        self._strict = strict
        # A chained digest (bytes, so the image still pickles).
        self._binds = hashlib.sha256(b"strict" if strict else b"lenient").digest()
        # Byte ranges ``(start, end)`` of the non-empty binds so far.
        self._bound: list[tuple[int, int]] = []

    @property
    def strict(self) -> bool:
        return self._strict

    @property
    def bind_digest(self) -> str:
        """Hex digest of the strict flag and every :meth:`bind_array`
        call so far (base address, word count, words).

        It describes the image as built: execution writes through
        :meth:`scatter`, never :meth:`bind_array`, so running a kernel
        leaves it unchanged.
        """
        return self._binds.hex()

    # ------------------------------------------------------------------
    # Array binding (workload setup / teardown).
    # ------------------------------------------------------------------
    def bind_array(self, base_addr: int, values: np.ndarray) -> None:
        """Copy a 1-D array of 32-bit values to ``base_addr`` (bytes).

        Float arrays are stored as their IEEE-754 bit patterns.  The
        call is folded into :attr:`bind_digest`.  A bind that overlaps
        an earlier one raises: a workload's input arrays never share a
        word.
        """
        if base_addr % 4 != 0:
            raise MemoryError_(f"base address {base_addr:#x} is not word-aligned")
        flat = np.ascontiguousarray(values).reshape(-1)
        if flat.dtype == np.float32:
            words = flat.view(np.uint32)
        elif flat.dtype in (np.uint32, np.int32):
            words = flat.astype(np.uint32, copy=False).view(np.uint32)
        else:
            raise MemoryError_(f"cannot bind array of dtype {flat.dtype}")
        if words.size:
            start, end = base_addr, base_addr + 4 * words.size
            for other_start, other_end in self._bound:
                if start < other_end and other_start < end:
                    raise MemoryError_(
                        f"bind of [{start:#x}, {end:#x}) overlaps the earlier "
                        f"bind of [{other_start:#x}, {other_end:#x})"
                    )
            self._bound.append((start, end))
        chained = hashlib.sha256(self._binds)
        chained.update(f"{base_addr}:{words.size};".encode())
        chained.update(words.astype("<u4", copy=False))
        self._binds = chained.digest()
        self._put(base_addr // 4 + np.arange(words.size, dtype=np.int64), words)

    def read_array(self, base_addr: int, count: int, dtype: type = np.uint32) -> np.ndarray:
        """Read ``count`` consecutive words starting at ``base_addr``."""
        if base_addr % 4 != 0:
            raise MemoryError_(f"base address {base_addr:#x} is not word-aligned")
        out = self.gather(base_addr // 4 + np.arange(count, dtype=np.int64))
        if dtype == np.float32:
            return out.view(np.float32)
        return out.astype(dtype)

    # ------------------------------------------------------------------
    # Word-address gathers and scatters.
    # ------------------------------------------------------------------
    def gather(self, words: np.ndarray) -> np.ndarray:
        """The words at int64 word addresses ``words``, in their order.

        In strict mode a read of an unmapped page raises, naming the
        first such address in ``words``.
        """
        out = np.zeros(words.shape, dtype=np.uint32)
        if words.size == 0:
            return out
        if self._strict:
            mapped = np.fromiter(self._pages, dtype=np.int64, count=len(self._pages))
            unmapped = ~np.isin(words >> _PAGE_SHIFT, mapped)
            if unmapped.any():
                first = int(words[np.argmax(unmapped)])
                raise MemoryError_(f"read of unmapped word address {first * 4:#x}")
        for page_index, where in _page_groups(words):
            page = self._pages.get(page_index)
            if page is not None:
                out[where] = page[words[where] & _OFFSET_MASK]
        return out

    def scatter(self, words: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` to int64 word addresses ``words``.

        When an address repeats, its last write wins.
        """
        if words.size > 1:
            # Keep each address's last write: numpy does not define
            # which of several fancy-index writes to one slot lands.
            last_first, index = np.unique(words[::-1], return_index=True)
            if last_first.size < words.size:
                keep = words.size - 1 - index
                words, values = words[keep], values[keep]
        self._put(words, values)

    def _put(self, words: np.ndarray, values: np.ndarray) -> None:
        """Scatter to distinct word addresses, allocating pages."""
        if words.size == 0:
            return
        for page_index, where in _page_groups(words):
            page = self._pages.get(page_index)
            if page is None:
                page = self._pages[page_index] = np.zeros(_PAGE_WORDS, dtype=np.uint32)
            page[words[where] & _OFFSET_MASK] = values[where]

    # ------------------------------------------------------------------
    # Warp-wide vector access.
    # ------------------------------------------------------------------
    def load(self, byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather one word per active lane; inactive lanes return zero."""
        values = np.zeros(byte_addrs.shape, dtype=np.uint32)
        values[mask] = self.gather((byte_addrs[mask] >> 2).astype(np.int64))
        return values

    def store(self, byte_addrs: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
        """Scatter one word per active lane.

        Intra-warp address collisions resolve to the highest-numbered
        lane, matching the "one of the colliding writes wins" guarantee
        of real hardware.
        """
        self.scatter((byte_addrs[mask] >> 2).astype(np.int64), values[mask])

    # ------------------------------------------------------------------
    # Rollback.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[int, np.ndarray]:
        """A copy of every mapped page, for :meth:`restore`."""
        return {index: page.copy() for index, page in self._pages.items()}

    def restore(self, snapshot: dict[int, np.ndarray]) -> None:
        """Return to the state :meth:`snapshot` captured (once per snapshot)."""
        self._pages = snapshot

    @property
    def mapped_bytes(self) -> int:
        """Bytes of backing store currently allocated."""
        return len(self._pages) * _PAGE_WORDS * 4
