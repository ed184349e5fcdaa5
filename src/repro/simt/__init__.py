"""SIMT execution substrate: grids, warps, divergence, functional traces."""

from repro.simt.executor import WarpExecutor, run_kernel
from repro.simt.grid import (
    LaunchConfig,
    WarpIdentity,
    enumerate_warps,
    int_to_mask,
    mask_to_int,
    popcount,
)
from repro.simt.memory_state import MemoryImage

__all__ = [
    "LaunchConfig",
    "MemoryImage",
    "WarpExecutor",
    "WarpIdentity",
    "enumerate_warps",
    "int_to_mask",
    "mask_to_int",
    "popcount",
    "run_kernel",
]
