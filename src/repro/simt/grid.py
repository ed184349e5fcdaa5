"""Thread-grid decomposition: grids, CTAs and warps.

A kernel launch is a 1-D grid of CTAs (thread blocks), each a 1-D range
of threads.  Threads are packed into warps in lane order; a CTA whose
size is not a multiple of the warp size gets one trailing partial warp
whose tail lanes start (and stay) inactive, exactly as real hardware
handles ragged blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class LaunchConfig:
    """A kernel launch: ``grid_dim`` CTAs of ``cta_dim`` threads."""

    grid_dim: int
    cta_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim < 1:
            raise ConfigError(f"grid_dim must be >= 1, got {self.grid_dim}")
        if self.cta_dim < 1:
            raise ConfigError(f"cta_dim must be >= 1, got {self.cta_dim}")

    @property
    def total_threads(self) -> int:
        return self.grid_dim * self.cta_dim

    def warps_per_cta(self, warp_size: int) -> int:
        return (self.cta_dim + warp_size - 1) // warp_size

    def total_warps(self, warp_size: int) -> int:
        return self.grid_dim * self.warps_per_cta(warp_size)


@dataclass(frozen=True)
class WarpIdentity:
    """Static identity of one warp within a launch.

    Carries everything the executor needs to materialize the special
    registers: per-lane global thread ids, the CTA id and the warp's
    initial active mask (partial for a ragged trailing warp).
    """

    warp_id: int
    cta_id: int
    warp_in_cta: int
    warp_size: int
    cta_dim: int
    first_thread: int

    def lane_indices(self) -> np.ndarray:
        """Lane numbers 0..warp_size-1 as uint32."""
        return np.arange(self.warp_size, dtype=np.uint32)

    def global_thread_ids(self) -> np.ndarray:
        """Global thread id of each lane (valid only for active lanes)."""
        return (self.first_thread + np.arange(self.warp_size)).astype(np.uint32)

    def initial_mask(self) -> np.ndarray:
        """Boolean lane mask; False for tail lanes past the CTA size."""
        thread_in_cta = self.warp_in_cta * self.warp_size + np.arange(self.warp_size)
        return thread_in_cta < self.cta_dim


def enumerate_warps(launch: LaunchConfig, warp_size: int) -> list[WarpIdentity]:
    """All warps of a launch in (cta, warp-in-cta) order."""
    if warp_size < 1:
        raise ConfigError(f"warp_size must be >= 1, got {warp_size}")
    warps: list[WarpIdentity] = []
    per_cta = launch.warps_per_cta(warp_size)
    for cta in range(launch.grid_dim):
        for w in range(per_cta):
            warps.append(
                WarpIdentity(
                    warp_id=cta * per_cta + w,
                    cta_id=cta,
                    warp_in_cta=w,
                    warp_size=warp_size,
                    cta_dim=launch.cta_dim,
                    first_thread=cta * launch.cta_dim + w * warp_size,
                )
            )
    return warps


def mask_to_int(mask: np.ndarray) -> int:
    """Pack a boolean lane mask into an integer bitmask (lane 0 = bit 0)."""
    packed = np.packbits(np.asarray(mask, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_mask(bits: int, warp_size: int) -> np.ndarray:
    """Unpack an integer bitmask into a boolean lane mask."""
    lanes = (int(bits) & ((1 << warp_size) - 1)).to_bytes((warp_size + 7) // 8, "little")
    unpacked = np.unpackbits(
        np.frombuffer(lanes, dtype=np.uint8), count=warp_size, bitorder="little"
    )
    return unpacked.astype(bool)


def popcount(bits: int) -> int:
    """Number of set bits in an integer mask."""
    return int(bits).bit_count()
