"""Per-event reference walks for the columnar figure analyses and stages.

Each function here is the event-at-a-time form of a columnar kernel in
``src/``: it walks :class:`~repro.simt.trace.KernelTrace` events (or a
classified stream) in program order, keeping per-warp register state in
dicts.  The differential tests pin the columnar kernels to these walks,
and :func:`reference_timing_and_power` pins the runner's production
stage engines to the per-event ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.halfwarp import ChunkScalarStats
from repro.compression.bdi import BdiMode, bdi_compress
from repro.compression.gscalar import common_prefix_bytes, compressed_bits
from repro.compression.stats import CompressionComparison
from repro.compression.wide import AddressWidthStudy, common_prefix_bytes_wide
from repro.config import ArchitectureConfig
from repro.experiments.sensitivity import SweepPoint
from repro.isa.opcodes import OpCategory
from repro.power.accounting import PowerAccountant
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.power.rf_energy import RegisterFileEnergyModel
from repro.power.rf_techniques import (
    RfEnergyResult,
    _bdi_access_pj,
    technique_architecture,
)
from repro.regfile.layout import BankGeometry, BaselineLayout
from repro.scalar.architectures import process_classified
from repro.scalar.tracker import classify_trace
from repro.simt.trace import KernelTrace
from repro.timing.gpu import simulate_architecture


def rf_energy_events(
    classified, technique: str, warp_size: int, params: EnergyParams | None = None
) -> RfEnergyResult:
    """RF energy of one technique by replaying ``process_classified``."""
    params = params or DEFAULT_ENERGY
    if technique == "wc_bdi":
        return wc_bdi_energy_events(classified, warp_size, params)
    arch = technique_architecture(technique)
    model = RegisterFileEnergyModel(arch, params)
    total = 0.0
    accesses = 0
    for warp_events in process_classified(classified, arch, warp_size):
        for item in warp_events:
            total += model.total_energy(item.rf_accesses).rf_pj
            accesses += len(item.rf_accesses)
    return RfEnergyResult(technique=technique, rf_pj=total, accesses=accesses)


def wc_bdi_energy_events(
    classified, warp_size: int, params: EnergyParams | None = None
) -> RfEnergyResult:
    """Warped-Compression RF energy with a per-warp register -> mode dict."""
    params = params or DEFAULT_ENERGY
    geometry = BankGeometry(warp_size=warp_size)
    baseline_layout = BaselineLayout(geometry)
    array_bytes = geometry.array_bits // 8
    full_mask = (1 << warp_size) - 1

    total = 0.0
    accesses = 0
    for warp_events in classified:
        modes: dict[int, BdiMode] = {}
        for item in warp_events:
            event = item.event
            for register in event.src_regs:
                mode = modes.get(register, BdiMode.UNCOMPRESSED)
                total += _bdi_access_pj(mode, warp_size, array_bytes, params)
                accesses += 1
            if event.dst is not None and event.dst_values is not None:
                if event.active_mask != full_mask:
                    previous = modes.get(event.dst, BdiMode.UNCOMPRESSED)
                    if previous is not BdiMode.UNCOMPRESSED:
                        total += _bdi_access_pj(
                            previous, warp_size, array_bytes, params
                        )
                        total += params.rf_full_access_pj
                        accesses += 2
                    arrays = baseline_layout.arrays_for_partial_write(
                        event.active_mask
                    )
                    total += arrays * params.rf_array_pj
                    modes[event.dst] = BdiMode.UNCOMPRESSED
                else:
                    mode = bdi_compress(event.dst_values).mode
                    modes[event.dst] = mode
                    total += _bdi_access_pj(mode, warp_size, array_bytes, params)
                accesses += 1
    return RfEnergyResult(technique="wc_bdi", rf_pj=total, accesses=accesses)


def chunk_scalar_stats_events(
    trace: KernelTrace, granularity: int = 16
) -> ChunkScalarStats:
    """Figure 10 counts with per-register (flags, chunk values) state."""
    warp_size = trace.warp_size
    chunks = warp_size // granularity
    full_mask = (1 << warp_size) - 1
    total = 0
    full_scalar = 0
    chunk_scalar = 0
    for warp in trace.warps:
        state: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for event in warp.events:
            total += 1
            divergent = event.active_mask != full_mask
            if not divergent and not event.varying_special_src:
                chunk_ok = np.ones(chunks, dtype=bool)
                known = True
                reference: list[np.ndarray] = []
                for register in event.src_regs:
                    reg_state = state.get(register)
                    if reg_state is None:
                        known = False
                        break
                    flags, values = reg_state
                    chunk_ok &= flags
                    reference.append(values)
                if known:
                    fully = bool(chunk_ok.all()) and all(
                        bool(np.all(v == v[0])) for v in reference
                    )
                    if fully:
                        full_scalar += 1
                    elif chunk_ok.any():
                        chunk_scalar += 1
            if event.dst is not None and event.dst_values is not None:
                if divergent:
                    state[event.dst] = (
                        np.zeros(chunks, dtype=bool),
                        np.zeros(chunks, dtype=np.uint32),
                    )
                else:
                    blocks = event.dst_values.reshape(chunks, granularity)
                    flags = np.array(
                        [bool(np.all(block == block[0])) for block in blocks]
                    )
                    state[event.dst] = (flags, blocks[:, 0].copy())
    return ChunkScalarStats(
        warp_size=warp_size,
        granularity=granularity,
        total_instructions=total,
        full_scalar_instructions=full_scalar,
        chunk_scalar_instructions=chunk_scalar,
    )


def compare_trace_events(trace: KernelTrace) -> CompressionComparison:
    """Ours-vs-BDI counters from one full-mask register write at a time."""
    size = trace.warp_size
    comparison = CompressionComparison(warp_size=size)
    full_mask = (1 << size) - 1
    for event in trace.all_events():
        if event.dst_values is None or event.active_mask != full_mask:
            continue
        enc = common_prefix_bytes(event.dst_values)
        bdi = bdi_compress(event.dst_values)
        comparison.registers_seen += 1
        comparison.enc_histogram[enc] += 1
        comparison.bdi_histogram[bdi.mode] += 1
        comparison.ours_total_bits += compressed_bits(enc, size)
        comparison.bdi_total_bits += bdi.total_bits
        comparison.uncompressed_total_bits += size * 32
    return comparison


def address_width_study_events(
    trace: KernelTrace, heap_base: int = 0x7F40_0000_0000
) -> AddressWidthStudy:
    """Address-register stored-byte fractions, one memory event at a time."""
    accesses = stored_32 = total_32 = stored_64 = total_64 = 0
    for event in trace.all_events():
        if event.category is not OpCategory.MEM or event.addresses is None:
            continue
        accesses += 1
        lanes = event.addresses.shape[0]
        stored_32 += (4 - common_prefix_bytes(event.addresses)) * lanes
        total_32 += 4 * lanes
        wide = event.addresses.astype(np.uint64) + np.uint64(heap_base)
        stored_64 += (8 - common_prefix_bytes_wide(wide)) * lanes
        total_64 += 8 * lanes
    if accesses == 0:
        return AddressWidthStudy(0, 1.0, 1.0)
    return AddressWidthStudy(
        accesses=accesses,
        stored_fraction_32bit=stored_32 / total_32,
        stored_fraction_64bit=stored_64 / total_64,
    )


def dynamic_static_scalar_fraction_events(scalarization, trace: KernelTrace) -> float:
    """Block-execution-weighted static-scalar share from an event walk."""
    body_events: dict[int, int] = {}
    for event in trace.all_events():
        if event.category is not OpCategory.CTRL:
            body_events[event.block_id] = body_events.get(event.block_id, 0) + 1
    total = trace.total_instructions
    if total == 0:
        return 0.0
    static_scalar = 0.0
    for block in scalarization.kernel.blocks:
        instructions = len(block.instructions)
        if instructions == 0:
            continue
        executions = body_events.get(block.block_id, 0) / instructions
        static_scalar += executions * scalarization.result.static_scalar_count(
            block.block_id
        )
    return static_scalar / total


def _sweep_points(parameter, scale_factors, names, value_of, report_of):
    """Mean G-Scalar / ALU-scalar gain per point, per-event engines."""
    arches = (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.alu_scalar(),
        ArchitectureConfig.gscalar(),
    )
    points = []
    for factor in scale_factors:
        gscalar_gain = 0.0
        alu_gain = 0.0
        for abbr in names:
            efficiencies = {
                arch.name: report_of(abbr, arch, factor).ipc_per_watt
                for arch in arches
            }
            gscalar_gain += efficiencies["gscalar"] / efficiencies["baseline"]
            alu_gain += efficiencies["alu_scalar"] / efficiencies["baseline"]
        points.append(
            SweepPoint(
                parameter=parameter,
                scale_factor=factor,
                value=value_of(factor),
                mean_gscalar_gain=gscalar_gain / len(names),
                mean_alu_scalar_gain=alu_gain / len(names),
            )
        )
    return points


def processed_events(runner, abbr, arch, classified=None):
    """``ArchitectureView`` output for one pair of a runner's benchmarks.

    ``classified`` defaults to the runner's (batch-classified) stream;
    the static width table is fed to ``static_compress`` as the runner
    does.
    """
    run = runner.run(abbr)
    widths = runner.static_widths(abbr) if arch.static_compression else None
    return process_classified(
        run.classified if classified is None else classified,
        arch,
        run.warp_size,
        static_widths=widths,
    )


def reference_timing_and_power(runner, abbr, arch):
    """Timing and power of one pair through the per-event engines.

    The chain is the per-event tracker, ``ArchitectureView``, the
    cycle-level SM simulator and per-event power accounting, in the
    runner's configuration.
    """
    run = runner.run(abbr)
    classified = classify_trace(run.trace, run.built.kernel.num_registers)
    processed = processed_events(runner, abbr, arch, classified)
    timing = simulate_architecture(
        processed,
        arch,
        runner.config,
        warp_size=run.warp_size,
        warps_per_cta=runner.warps_per_cta(abbr),
        sm_engine="cycle",
    )
    power = PowerAccountant(arch, runner.params, runner.config).account(
        processed, timing
    )
    return timing, power


def sweep_energy_parameter_events(runner, parameter, scale_factors, names):
    """The energy sweep over per-event processed traces and accounting."""
    base = getattr(runner.params, parameter)
    processed = {}

    def report_of(abbr, arch, factor):
        key = (abbr, arch.name)
        if key not in processed:
            processed[key] = processed_events(runner, abbr, arch)
        params = dataclasses.replace(runner.params, **{parameter: base * factor})
        return PowerAccountant(arch, params, runner.config).account(
            processed[key], runner.timing(abbr, arch)
        )

    return _sweep_points(
        parameter, scale_factors, names, lambda f: base * f, report_of
    )


def sweep_latency_parameter_events(runner, parameter, scale_factors, names):
    """The latency sweep re-simulating per-event processed traces."""
    base = getattr(runner.config, parameter)
    cached = {}

    def value_of(factor):
        return max(1, round(base * factor))

    def report_of(abbr, arch, factor):
        config = dataclasses.replace(runner.config, **{parameter: value_of(factor)})
        key = (abbr, arch.name)
        if key not in cached:
            cached[key] = processed_events(runner, abbr, arch)
        processed = cached[key]
        timing = simulate_architecture(
            processed,
            arch,
            config,
            warp_size=config.warp_size,
            warps_per_cta=runner.warps_per_cta(abbr),
        )
        return PowerAccountant(arch, runner.params, config).account(processed, timing)

    return _sweep_points(
        parameter, scale_factors, names, lambda f: float(value_of(f)), report_of
    )
