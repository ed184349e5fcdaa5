"""Shared fixtures: small kernels, traces and classified streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.isa import KernelBuilder
from repro.simt import LaunchConfig, MemoryImage, run_kernel


@pytest.fixture(scope="session")
def shared_runner():
    """One small-scale runner for the paper-shape tests of the figures,
    Table 3 extras, sensitivity sweeps, ablations and the scorecard:
    each trace executes once per session.

    Small is the smallest scale that keeps every paper-shape bound; at
    tiny scale Figure 1, Figure 11, the sensitivity sweep and two of
    the ablations miss theirs.
    """
    return ExperimentRunner(scale="small")


@pytest.fixture
def saxpy_kernel():
    """y[tid] = 2*x[tid] + y[tid] with integer math (no divergence)."""
    b = KernelBuilder("saxpy")
    tid = b.tid()
    x = b.ld_global(b.imad(tid, 4, 0x1000))
    y = b.ld_global(b.imad(tid, 4, 0x2000))
    result = b.iadd(b.imul(x, 2), y)
    b.st_global(b.imad(tid, 4, 0x3000), result)
    return b.finish()


@pytest.fixture
def divergent_kernel():
    """Even lanes add 10, odd lanes add 20 (one divergent branch)."""
    b = KernelBuilder("divergent")
    tid = b.tid()
    value = b.mov(0)
    is_even = b.seteq(b.and_(tid, 1), 0)
    with b.if_(is_even) as branch:
        value = b.iadd(value, 10, dst=value)
        with branch.else_():
            value = b.iadd(value, 20, dst=value)
    b.st_global(b.imad(tid, 4, 0x3000), value)
    return b.finish()


@pytest.fixture
def loop_kernel():
    """acc = sum of tid over 5 iterations (uniform loop)."""
    b = KernelBuilder("loop")
    tid = b.tid()
    acc = b.mov(0)
    with b.for_range(0, 5):
        acc = b.iadd(acc, tid, dst=acc)
    b.st_global(b.imad(tid, 4, 0x3000), acc)
    return b.finish()


@pytest.fixture
def scalar_heavy_kernel():
    """Chains on broadcast constants: most instructions are scalar."""
    b = KernelBuilder("scalar_heavy")
    tid = b.tid()
    c = b.mov(100)
    d = b.iadd(c, 5)
    e = b.imul(d, 3)
    f = b.sin(b.i2f(e))
    g = b.fadd(f, b.fimm(1.0))
    b.st_global(b.imad(tid, 4, 0x3000), g)
    return b.finish()


def run_one_warp(kernel, memory=None, warp_size=32, cta=None):
    """Helper: execute a kernel on a single warp (or ``cta`` threads)."""
    memory = memory or MemoryImage()
    launch = LaunchConfig(grid_dim=1, cta_dim=cta or warp_size)
    return run_kernel(kernel, launch, memory, warp_size=warp_size)


@pytest.fixture
def simple_memory():
    """Memory with x[i] = i at 0x1000 and y[i] = 100 + i at 0x2000."""
    memory = MemoryImage()
    memory.bind_array(0x1000, np.arange(64, dtype=np.uint32))
    memory.bind_array(0x2000, (100 + np.arange(64)).astype(np.uint32))
    return memory
