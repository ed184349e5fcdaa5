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
from repro.simt.trace import KernelTrace, TraceEvent, WarpTrace

__all__ = [
    "KernelTrace",
    "LaunchConfig",
    "MemoryImage",
    "TraceEvent",
    "WarpExecutor",
    "WarpIdentity",
    "WarpTrace",
    "enumerate_warps",
    "int_to_mask",
    "mask_to_int",
    "popcount",
    "run_kernel",
]
