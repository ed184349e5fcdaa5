"""Wide-value (64-bit) compression — the §5.3 forward-looking study.

The paper notes that GPUs addressing more than 4 GB must compute
64-bit addresses, and that byte-wise compression then captures *more*
savings: intra-warp addresses typically differ only in their lowest
bytes, so widening the register doubles the shareable prefix.

:func:`common_prefix_bytes_wide` generalizes the Figure 2 comparison to
8-byte lanes; :func:`address_width_study` evaluates a trace's memory
events and reports the fraction of register-file bytes that still need
storing under 32-bit vs 64-bit addressing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.gscalar import prefix_bytes_batch
from repro.errors import CompressionError
from repro.isa.opcodes import OpCategory, category_of
from repro.merge import fixed
from repro.simt.trace import ID_TO_OPCODE, ColumnarTrace

#: Stored opcode ids of the memory instructions.
_MEM_OPCODE_IDS = [
    index
    for index, opcode in ID_TO_OPCODE.items()
    if category_of(opcode) is OpCategory.MEM
]


def common_prefix_bytes_wide(values: np.ndarray, width_bytes: int = 8) -> int:
    """Identical most-significant bytes across lanes of wide values.

    ``values`` is a 1-D uint64 array; returns 0..``width_bytes``.
    """
    if width_bytes < 1 or width_bytes > 8:
        raise CompressionError(f"width_bytes must be 1..8, got {width_bytes}")
    words = np.ascontiguousarray(values, dtype=np.uint64)
    if words.ndim != 1:
        raise CompressionError(f"expected a 1-D lane array, got shape {words.shape}")
    if words.size <= 1:
        return width_bytes
    difference = int(np.bitwise_or.reduce(words ^ words[0]))
    for prefix in range(width_bytes):
        top_byte_shift = 8 * (width_bytes - 1 - prefix)
        if (difference >> top_byte_shift) & 0xFF:
            return prefix
    return width_bytes


@dataclass(frozen=True)
class AddressWidthStudy:
    """Stored bytes of the address registers at both widths.

    The fractions are stored bytes over register bytes (1.0 without
    accesses); the counts are integers, so studies merge exactly.
    """

    accesses: int
    warp_size: int = fixed()
    stored_bytes_32bit: int = 0
    stored_bytes_64bit: int = 0

    @property
    def stored_fraction_32bit(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.stored_bytes_32bit / (4 * self.warp_size * self.accesses)

    @property
    def stored_fraction_64bit(self) -> float:
        if self.accesses == 0:
            return 1.0
        return self.stored_bytes_64bit / (8 * self.warp_size * self.accesses)

    @property
    def savings_32bit(self) -> float:
        return 1.0 - self.stored_fraction_32bit

    @property
    def savings_64bit(self) -> float:
        return 1.0 - self.stored_fraction_64bit


def prefix_bytes_wide_batch(values: np.ndarray, width_bytes: int = 8) -> np.ndarray:
    """Per-row :func:`common_prefix_bytes_wide` over a ``(n, lanes)`` matrix."""
    if width_bytes < 1 or width_bytes > 8:
        raise CompressionError(f"width_bytes must be 1..8, got {width_bytes}")
    words = np.ascontiguousarray(values, dtype=np.uint64)
    if words.ndim != 2:
        raise CompressionError(
            f"expected a (rows, lanes) matrix, got shape {words.shape}"
        )
    difference = np.bitwise_or.reduce(words ^ words[:, :1], axis=1)
    enc = np.full(words.shape[0], width_bytes, dtype=np.int64)
    # Lowest byte first, so the most significant differing byte wins.
    for prefix in reversed(range(width_bytes)):
        top_byte_shift = np.uint64(8 * (width_bytes - 1 - prefix))
        enc[((difference >> top_byte_shift) & np.uint64(0xFF)) != 0] = prefix
    return enc


def address_width_study(
    trace: ColumnarTrace, heap_base: int = 0x7F40_0000_0000
) -> AddressWidthStudy:
    """Compare address-register compressibility at 32 vs 64 bits.

    Every memory event's per-lane addresses are evaluated twice: as the
    32-bit words the trace recorded, and zero-extended onto a 64-bit
    heap base (the virtual-address layout a >4 GB GPU would use).  The
    returned fractions are stored-bytes / register-bytes; lower is
    better, and the 64-bit fraction is expected to be lower — the §5.3
    claim that wide addresses make byte-wise compression *more*
    effective.
    """
    memory = np.isin(trace.opcode_ids, _MEM_OPCODE_IDS) & (trace.addr_index >= 0)
    narrow = trace.addresses[trace.addr_index[memory]]
    accesses, lanes = narrow.shape
    if accesses == 0:
        return AddressWidthStudy(0, lanes)
    wide = narrow.astype(np.uint64) + np.uint64(heap_base)
    return AddressWidthStudy(
        accesses=accesses,
        warp_size=lanes,
        stored_bytes_32bit=int((4 - prefix_bytes_batch(narrow)).sum()) * lanes,
        stored_bytes_64bit=int((8 - prefix_bytes_wide_batch(wide)).sum()) * lanes,
    )
