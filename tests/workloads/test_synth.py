"""Synthetic large-tier trace generation: replica math and invariants.

The synthetic tier replicates a seed trace with seeded perturbations
that must preserve every structural property the pipeline measures —
lane-equality patterns, coalescing shape, warp structure — while the
streamed chunk generator must be partition-equivalent to materializing
the whole replicated trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments.streaming import stream_pipeline
from repro.simt import run_kernel
from repro.simt.trace import iter_chunks
from repro.workloads.registry import SCALES, build_workload
from repro.workloads.synth import (
    iter_synthetic_chunks,
    replicate_columnar,
    synthetic_num_events,
    synthetic_replicas,
)

from tests.reference.synth import concat_columnar, materialize_synthetic

_SEED_CACHE: dict[str, tuple] = {}


def seed_case(abbr: str = "HS"):
    if abbr not in _SEED_CACHE:
        built = build_workload(abbr, "tiny")
        _SEED_CACHE[abbr] = (
            built,
            run_kernel(built.kernel, built.launch, built.memory),
        )
    return _SEED_CACHE[abbr]


def scale_with(synthetic_events: int):
    return dataclasses.replace(SCALES["tiny"], synthetic_events=synthetic_events)


class TestReplicaMath:
    def test_zero_synthetic_events_means_one_replica(self):
        _, seed = seed_case()
        assert synthetic_replicas(seed, scale_with(0)) == 1

    def test_ceiling_division(self):
        _, seed = seed_case()
        n = seed.num_events
        assert synthetic_replicas(seed, scale_with(n)) == 1
        assert synthetic_replicas(seed, scale_with(n + 1)) == 2
        assert synthetic_replicas(seed, scale_with(3 * n)) == 3

    def test_replicated_stream_reaches_floor(self):
        _, seed = seed_case()
        target = seed.num_events * 2 + 7
        replicas = synthetic_replicas(seed, scale_with(target))
        assert synthetic_num_events(seed, replicas) >= target

    def test_large_tier_floor(self):
        assert SCALES["large"].synthetic_events >= 1_000_000


class TestPerturbationInvariants:
    def test_replica_zero_is_the_seed(self):
        _, seed = seed_case()
        assert replicate_columnar(seed, 0) is seed

    def test_deterministic(self):
        _, seed = seed_case()
        a = replicate_columnar(seed, 3)
        b = replicate_columnar(seed, 3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.warp_ids, b.warp_ids)

    def test_distinct_seed_distinct_perturbation(self):
        _, seed = seed_case()
        a = replicate_columnar(seed, 1, seed=1)
        b = replicate_columnar(seed, 1, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_lane_equality_preserved(self):
        _, seed = seed_case()
        replica = replicate_columnar(seed, 5)
        # A uniform 32-bit add keeps uniform rows uniform and divergent
        # rows divergent — the property the scalar classifier measures.
        if seed.values.shape[0]:
            seed_uniform = np.ptp(seed.values, axis=-1) == 0
            replica_uniform = np.ptp(replica.values, axis=-1) == 0
            assert np.array_equal(seed_uniform, replica_uniform)
            assert not np.array_equal(seed.values, replica.values)

    def test_coalescing_shape_preserved(self):
        _, seed = seed_case()
        replica = replicate_columnar(seed, 5)
        if seed.addresses.shape[0]:
            delta = replica.addresses.astype(np.int64) - seed.addresses.astype(
                np.int64
            )
            deltas = np.unique(delta % (1 << 32))
            assert deltas.size == 1  # one uniform shift for the replica
            assert int(deltas[0]) % 128 == 0  # 128-byte aligned
            assert int(deltas[0]) != 0

    def test_warp_ids_offset_per_replica(self):
        _, seed = seed_case()
        for replica_index in (1, 4):
            replica = replicate_columnar(seed, replica_index)
            assert np.array_equal(
                replica.warp_ids,
                seed.warp_ids + replica_index * seed.num_warps,
            )

    def test_control_structure_untouched(self):
        _, seed = seed_case()
        replica = replicate_columnar(seed, 2)
        for name in ("opcode_ids", "masks", "src_flat", "warp_lengths", "blocks"):
            assert np.array_equal(getattr(seed, name), getattr(replica, name))


class TestSyntheticChunkStream:
    REPLICAS = 3

    def test_global_indexing_is_contiguous(self):
        _, seed = seed_case()
        chunk_events = max(1, seed.num_events // 5)
        next_index = 0
        next_event = 0
        total = 0
        for chunk in iter_synthetic_chunks(seed, self.REPLICAS, chunk_events):
            assert chunk.index == next_index
            assert chunk.start_event == next_event
            next_index += 1
            next_event += chunk.num_events
            total += chunk.num_events
        assert total == synthetic_num_events(seed, self.REPLICAS)

    def test_chunk_concat_equals_materialized(self):
        _, seed = seed_case()
        # Replica-sized chunks: the streamed pieces concatenate back to
        # exactly the materialized whole trace.
        pieces = [
            chunk.columnar
            for chunk in iter_synthetic_chunks(
                seed, self.REPLICAS, seed.num_events
            )
        ]
        whole = materialize_synthetic(seed, self.REPLICAS)
        rebuilt = concat_columnar(pieces)
        assert rebuilt.num_events == whole.num_events
        for name in ("values", "addresses", "warp_ids", "opcode_ids", "src_offsets"):
            assert np.array_equal(getattr(rebuilt, name), getattr(whole, name))

    def test_streamed_equals_materialized_pipeline(self):
        built, seed = seed_case()
        arches = (ArchitectureConfig.baseline(), ArchitectureConfig.gscalar())
        config = GpuConfig()
        chunk_events = max(1, seed.num_events // 3)

        # Per-replica chunk grid (the streaming path) vs a global chunk
        # grid over the materialized trace: partition invariance says
        # the outputs cannot differ.
        streamed = stream_pipeline(
            iter_synthetic_chunks(seed, self.REPLICAS, chunk_events),
            arches,
            built.kernel.num_registers,
            config=config,
        )
        whole = materialize_synthetic(seed, self.REPLICAS)
        materialized = stream_pipeline(
            iter_chunks(whole, chunk_events),
            arches,
            built.kernel.num_registers,
            config=config,
        )
        assert streamed.num_events == materialized.num_events == whole.num_events
        for arch in arches:
            assert (
                streamed.join(arch.name).digest()
                == materialized.join(arch.name).digest()
            )
            assert streamed.aggregates[arch.name] == materialized.aggregates[arch.name]
