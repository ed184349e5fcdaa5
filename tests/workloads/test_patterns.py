"""Tests for the shared workload code-generation patterns."""

import numpy as np

from repro.compression.gscalar import common_prefix_bytes
from repro.isa import KernelBuilder
from repro.scalar import ScalarClass
from repro.simt import MemoryImage
from repro.workloads import patterns

from tests.conftest import run_one_warp
from tests.reference.classify import classify_warp
from tests.reference.trace import to_trace


class TestLoadBroadcast:
    def test_produces_mem_scalar_instruction(self):
        b = KernelBuilder("broadcast")
        value = patterns.load_broadcast(b, patterns.PARAMS_BASE)
        b.iadd(value, 1)
        kernel = b.finish()
        memory = MemoryImage()
        memory.bind_array(patterns.PARAMS_BASE, np.array([42], dtype=np.uint32))
        trace = to_trace(run_one_warp(kernel, memory))
        classified = classify_warp(trace.warps[0], kernel.num_registers)
        classes = [item.scalar_class for item in classified]
        assert ScalarClass.MEM_SCALAR in classes
        # The value it produced is a scalar register for the consumer.
        assert classes[-1] is ScalarClass.ALU_SCALAR


class TestThreadElementAddr:
    def test_affine_addresses(self):
        b = KernelBuilder("affine")
        tid = b.tid()
        addr = patterns.thread_element_addr(b, tid, 0x1000)
        x = b.ld_global(addr)
        b.st_global(patterns.thread_element_addr(b, tid, 0x2000), x)
        kernel = b.finish()
        memory = MemoryImage()
        memory.bind_array(0x1000, np.arange(32, dtype=np.uint32) * 3)
        run_one_warp(kernel, memory)
        out = memory.read_array(0x2000, 32)
        assert np.array_equal(out, np.arange(32, dtype=np.uint32) * 3)

    def test_custom_stride(self):
        b = KernelBuilder("stride")
        tid = b.tid()
        addr = patterns.thread_element_addr(b, tid, 0x1000, stride=8)
        b.st_global(addr, tid)
        kernel = b.finish()
        memory = MemoryImage()
        trace = to_trace(run_one_warp(kernel, memory))
        store = [e for e in trace.warps[0] if e.addresses is not None][-1]
        assert store.addresses[1] - store.addresses[0] == 8


class TestHalfParameter:
    def test_values_are_half_scalar(self):
        b = KernelBuilder("halfparam")
        param = patterns.half_parameter(b, patterns.PARAMS_BASE)
        b.st_global(patterns.thread_element_addr(b, b.tid(), 0x2000), param)
        kernel = b.finish()
        memory = MemoryImage()
        memory.bind_array(
            patterns.PARAMS_BASE, np.array([10, 20], dtype=np.uint32)
        )
        run_one_warp(kernel, memory)
        out = memory.read_array(0x2000, 32)
        assert np.all(out[:16] == 10)
        assert np.all(out[16:] == 20)
        # Each half is internally scalar; the full register is not.
        assert common_prefix_bytes(out[:16]) == 4
        assert common_prefix_bytes(out) < 4

    def test_consumers_classify_half_scalar(self):
        b = KernelBuilder("halfuse")
        param = patterns.half_parameter(b, patterns.PARAMS_BASE)
        b.iadd(param, 5)
        kernel = b.finish()
        memory = MemoryImage()
        memory.bind_array(
            patterns.PARAMS_BASE, np.array([10, 20], dtype=np.uint32)
        )
        trace = to_trace(run_one_warp(kernel, memory))
        classified = classify_warp(trace.warps[0], kernel.num_registers)
        assert classified[-1].scalar_class is ScalarClass.HALF_SCALAR


class TestAddressMap:
    def test_regions_do_not_overlap(self):
        regions = [
            patterns.PARAMS_BASE,
            patterns.FLAGS_BASE,
            patterns.INPUT_A,
            patterns.INPUT_B,
            patterns.INPUT_C,
            patterns.INPUT_D,
            patterns.OUTPUT_A,
            patterns.OUTPUT_B,
        ]
        assert sorted(regions) == regions
        gaps = [b - a for a, b in zip(regions, regions[1:])]
        assert min(gaps) >= 0x7000  # room for the largest arrays
