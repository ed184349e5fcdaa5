"""Recurring code-generation patterns shared by the workload proxies.

These capture the idioms that create the paper's value-similarity
classes in real CUDA code:

* broadcast parameter loads (all lanes hit one address) -> scalar
  registers and MEM-scalar instructions,
* per-thread streaming loads of similar data -> n-byte registers,
* per-half parameter selection -> half-warp-scalar registers (§4.3),
* flag-driven branches from :func:`repro.workloads.datagen.boundary_mask_pattern`
  -> warps that diverge with a majority path, feeding divergent-scalar
  chains (§4.2).
"""

from __future__ import annotations

from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Reg

# Shared address map (bytes), 1 MiB between inputs.  A workload whose
# arrays can outgrow that spacing lays them out by size (MV), and
# ``MemoryImage.bind_array`` raises on an overlapping bind.
PARAMS_BASE = 0x1000
FLAGS_BASE = 0x8000
INPUT_A = 0x10_0000
INPUT_B = 0x20_0000
INPUT_C = 0x30_0000
INPUT_D = 0x40_0000
OUTPUT_A = 0x80_0000
OUTPUT_B = 0x90_0000


def thread_element_addr(b: KernelBuilder, tid: Reg, base: int, stride: int = 4) -> Reg:
    """Per-thread address ``base + tid*stride`` — the canonical
    coalesced-access pattern (affine, 2-3 byte similar)."""
    return b.imad(tid, stride, base)


def load_broadcast(b: KernelBuilder, addr: int) -> Reg:
    """Load one parameter all lanes share: a MEM-scalar instruction
    producing a scalar register."""
    return b.ld_global(b.mov(addr))


def load_thread_flag(b: KernelBuilder, tid: Reg, base: int = FLAGS_BASE) -> Reg:
    """Load this thread's 0/1 branch flag."""
    return b.ld_global(thread_element_addr(b, tid, base))


def half_parameter(b: KernelBuilder, base: int) -> Reg:
    """Load a per-half-warp parameter: lanes 0-15 read ``base``, lanes
    16-31 read ``base+4``.  The result is a half-warp-scalar register
    (each half holds one value; the halves differ)."""
    lane = b.lane()
    half_index = b.shr(lane, 4)
    return b.ld_global(b.imad(half_index, 4, base))
