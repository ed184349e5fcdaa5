"""A structural model of one byte-rotated register-file bank.

This actually stores register bytes in the rotated array layout of
Figure 3 — array ``(byte_position, half)`` holds byte ``byte_position``
of 16 lanes — with per-byte write enables (§3.3), and reconstructs
values through the decompression path of Figure 5.  It exists to prove
the layout works: the trace-driven models elsewhere only need the
*arrays-activated* arithmetic in :mod:`repro.regfile.layout`, but
``tests/regfile/test_bank.py`` round-trips real values through real
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.compression.encoding import SCALAR_PREFIX
from repro.compression.gscalar import common_prefix_bytes
from repro.regfile.layout import BankGeometry


@dataclass
class AccessRecord:
    """Arrays touched by one bank operation (returned for inspection)."""

    data_arrays: int
    sidecar: bool


class RegisterBank:
    """One bank of ``num_registers`` byte-rotated vector registers."""

    def __init__(self, num_registers: int = 64, geometry: BankGeometry | None = None):
        if num_registers < 1:
            raise ConfigError(f"num_registers must be >= 1, got {num_registers}")
        self.geometry = geometry or BankGeometry()
        self.num_registers = num_registers
        lanes = self.geometry.warp_size
        # arrays[byte_position][register] -> one byte per lane.
        self._arrays = np.zeros((4, num_registers, lanes), dtype=np.uint8)
        self._bvr = np.zeros(num_registers, dtype=np.uint64)  # holds base or mask
        self._ebr = np.zeros(num_registers, dtype=np.uint8)  # prefix length 0..4
        self._dbit = np.zeros(num_registers, dtype=bool)

    def _check_register(self, register: int) -> None:
        if not 0 <= register < self.num_registers:
            raise ConfigError(
                f"register {register} out of range 0..{self.num_registers - 1}"
            )

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def write_compressed(self, register: int, values: np.ndarray) -> AccessRecord:
        """Non-divergent write: compress, store only non-prefix bytes."""
        self._check_register(register)
        words = np.ascontiguousarray(values, dtype=np.uint32)
        enc = common_prefix_bytes(words)
        # Bytes are *always* stored rotated (the crossbar reorders them
        # unconditionally, §3.2), but prefix bytes are simply not driven.
        for byte_position in range(4 - enc):
            self._arrays[byte_position, register] = (
                words >> (8 * byte_position)
            ) & 0xFF
        self._ebr[register] = enc
        self._bvr[register] = np.uint64(words[0])
        self._dbit[register] = False
        arrays = (4 - enc) * self.geometry.arrays_per_byte_position
        return AccessRecord(data_arrays=arrays, sidecar=True)

    def write_divergent(
        self, register: int, values: np.ndarray, mask: np.ndarray
    ) -> AccessRecord:
        """Divergent partial write: store uncompressed, D=1, BVR=mask.

        Requires the register to be currently uncompressed (the
        scoreboard inserts a decompress-move otherwise, §3.3); call
        :meth:`decompress_in_place` first when needed.
        """
        self._check_register(register)
        if self._ebr[register] != 0 and not self._dbit[register]:
            raise ConfigError(
                f"register {register} is compressed; decompress before a "
                "divergent partial write"
            )
        words = np.ascontiguousarray(values, dtype=np.uint32)
        lane_mask = np.asarray(mask, dtype=bool)
        for byte_position in range(4):
            byte_column = ((words >> (8 * byte_position)) & 0xFF).astype(np.uint8)
            np.copyto(self._arrays[byte_position, register], byte_column, where=lane_mask)
        active = words[lane_mask]
        self._ebr[register] = common_prefix_bytes(active) if active.size else SCALAR_PREFIX
        mask_bits = 0
        for lane in np.flatnonzero(lane_mask):
            mask_bits |= 1 << int(lane)
        self._bvr[register] = np.uint64(mask_bits)
        self._dbit[register] = True
        return AccessRecord(data_arrays=self.geometry.arrays_per_bank, sidecar=True)

    def decompress_in_place(self, register: int) -> AccessRecord:
        """The special register-to-register move of §3.3: read,
        decompress, store back uncompressed (ignoring any active mask)."""
        self._check_register(register)
        values, _ = self.read(register)
        for byte_position in range(4):
            self._arrays[byte_position, register] = (
                (values >> (8 * byte_position)) & 0xFF
            ).astype(np.uint8)
        self._ebr[register] = 0
        self._dbit[register] = False
        self._bvr[register] = np.uint64(0)
        return AccessRecord(data_arrays=2 * self.geometry.arrays_per_bank, sidecar=True)

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def read(self, register: int) -> tuple[np.ndarray, AccessRecord]:
        """Read and (if needed) decompress a register's full contents."""
        self._check_register(register)
        lanes = self.geometry.warp_size
        divergent = bool(self._dbit[register])
        enc = 0 if divergent else int(self._ebr[register])
        values = np.zeros(lanes, dtype=np.uint32)
        for byte_position in range(4 - enc):
            values |= self._arrays[byte_position, register].astype(np.uint32) << np.uint32(
                8 * byte_position
            )
        if enc:
            prefix_mask = np.uint32((0xFFFFFFFF << (8 * (4 - enc))) & 0xFFFFFFFF)
            base = np.uint32(int(self._bvr[register]) & 0xFFFFFFFF)
            values |= np.uint32(base & prefix_mask)
        arrays = (4 - enc) * self.geometry.arrays_per_byte_position
        return values, AccessRecord(data_arrays=arrays, sidecar=True)

    # ------------------------------------------------------------------
    # Sidecar inspection.
    # ------------------------------------------------------------------
    def encoding_of(self, register: int) -> tuple[int, bool, int]:
        """(enc prefix length, D bit, BVR contents) of a register."""
        self._check_register(register)
        return int(self._ebr[register]), bool(self._dbit[register]), int(self._bvr[register])

    def is_scalar(self, register: int) -> bool:
        """True when enc says all lanes hold one value (non-divergent)."""
        self._check_register(register)
        return not self._dbit[register] and int(self._ebr[register]) == SCALAR_PREFIX
