"""Per-event reference walks for the columnar figure analyses and stages.

Each function here is the event-at-a-time form of a columnar kernel in
``src/``: it walks :class:`~tests.reference.trace.KernelTrace` events (or a
classified stream) in program order, keeping per-warp register state in
dicts.  The differential tests pin the columnar kernels to these walks,
and :func:`reference_timing_and_power` pins the runner's production
stage engines to the per-event ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.halfwarp import ChunkScalarStats
from repro.analysis.similarity import AccessDistribution
from repro.analysis.static_.uniformity import StaticScalarClass, UniformityResult
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
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode
from repro.regfile.layout import BankGeometry, BaselineLayout
from repro.scalar.columns import (
    CATEGORY_CODE_BY_OPCODE,
    ClassifiedColumns,
    _popcount,
)
from repro.scalar.eligibility import SCALAR_CLASS_TO_ID, ScalarClass
from repro.simt.trace import OPCODE_TO_ID, ColumnarTrace

from tests.reference.classify import classify_trace
from tests.reference.interpret import process_classified
from tests.reference.power import account, total_energy
from tests.reference.sm import SmSimulator
from tests.reference.timing import lower_to_timing_ops, simulate_architecture
from tests.reference.trace import KernelTrace, WarpTrace, to_trace


def columns_from_classified(
    classified: list[list],
    warp_size: int,
    columnar: ColumnarTrace | None = None,
) -> ClassifiedColumns:
    """Pack a per-event classified stream into :class:`ClassifiedColumns`.

    The bridge from the tracker oracle (:func:`classify_trace`) to the
    columns :func:`repro.scalar.batch.classify_columnar_batch` writes.
    ``columnar``, when given, must be the trace the stream was
    classified from; its event-side arrays (opcodes, masks, blocks,
    destinations, source registers, addresses) are reused directly.
    """
    count = sum(len(warp) for warp in classified)
    class_ids = np.empty(count, dtype=np.uint8)
    lo_half = np.empty(count, dtype=bool)
    hi_half = np.empty(count, dtype=bool)
    divergent = np.empty(count, dtype=bool)
    has_dst = np.empty(count, dtype=bool)
    needs_move = np.empty(count, dtype=bool)
    dst_enc = np.zeros(count, dtype=np.int8)
    dst_enc_lo = np.zeros(count, dtype=np.int8)
    dst_enc_hi = np.zeros(count, dtype=np.int8)
    dst_is_scalar = np.zeros(count, dtype=bool)
    before_enc = np.zeros(count, dtype=np.int8)
    before_enc_lo = np.zeros(count, dtype=np.int8)
    before_enc_hi = np.zeros(count, dtype=np.int8)

    class_to_id = SCALAR_CLASS_TO_ID
    src_enc: list[int] = []
    src_enc_lo: list[int] = []
    src_enc_hi: list[int] = []
    src_div: list[bool] = []
    src_scalar: list[bool] = []
    enc_append = src_enc.append
    lo_append = src_enc_lo.append
    hi_append = src_enc_hi.append
    div_append = src_div.append
    scalar_append = src_scalar.append

    need_events = columnar is None
    if need_events:
        opcode_ids = np.empty(count, dtype=np.uint16)
        masks = np.empty(count, dtype=np.uint64)
        blocks = np.empty(count, dtype=np.int32)
        dst = np.empty(count, dtype=np.int32)
        src_offsets = np.zeros(count + 1, dtype=np.int64)
        src_registers: list[int] = []
        addr_index = np.full(count, -1, dtype=np.int64)
        addr_rows: list[np.ndarray] = []
        opcode_to_id = OPCODE_TO_ID
    position = 0
    for warp_events in classified:
        for item in warp_events:
            class_ids[position] = class_to_id[item.scalar_class]
            lo_half[position] = item.lo_half_scalar_exec
            hi_half[position] = item.hi_half_scalar_exec
            divergent[position] = item.divergent
            needs_move[position] = item.needs_decompress_move
            encoding = item.dst_encoding
            if encoding is None:
                has_dst[position] = False
            else:
                has_dst[position] = True
                dst_enc[position] = encoding.enc
                dst_enc_lo[position] = encoding.enc_lo
                dst_enc_hi[position] = encoding.enc_hi
                dst_is_scalar[position] = encoding.is_scalar
                if item.needs_decompress_move:
                    before = item.dst_encoding_before
                    before_enc[position] = before.enc
                    before_enc_lo[position] = before.enc_lo
                    before_enc_hi[position] = before.enc_hi
            for source in item.sources:
                encoding = source.encoding
                enc_append(encoding.enc)
                lo_append(encoding.enc_lo)
                hi_append(encoding.enc_hi)
                div_append(encoding.divergent)
                scalar_append(source.scalar_for_read)
            if need_events:
                event = item.event
                opcode_ids[position] = opcode_to_id[event.opcode]
                masks[position] = event.active_mask
                blocks[position] = event.block_id
                dst[position] = -1 if event.dst is None else event.dst
                src_registers.extend(event.src_regs)
                src_offsets[position + 1] = len(src_registers)
                if event.addresses is not None:
                    addr_index[position] = len(addr_rows)
                    addr_rows.append(
                        np.asarray(event.addresses, dtype=np.uint32)
                    )
            position += 1

    if columnar is not None:
        opcode_ids = columnar.opcode_ids
        masks = columnar.masks
        blocks = columnar.blocks
        dst = columnar.dst
        src_offsets = columnar.src_offsets
        registers = columnar.src_flat
        addr_index = columnar.addr_index
        addresses = columnar.addresses
    else:
        registers = np.array(src_registers, dtype=np.int32)
        addresses = (
            np.stack(addr_rows)
            if addr_rows
            else np.empty((0, warp_size), dtype=np.uint32)
        )

    active_lanes = _popcount(masks)
    return ClassifiedColumns(
        warp_size=warp_size,
        warp_lengths=np.array(
            [len(warp) for warp in classified], dtype=np.int64
        ),
        opcode_ids=opcode_ids,
        category_codes=CATEGORY_CODE_BY_OPCODE[opcode_ids],
        masks=masks,
        active_lanes=active_lanes,
        divergent=divergent,
        blocks=blocks,
        dst=dst,
        scalar_class_ids=class_ids,
        lo_half_exec=lo_half,
        hi_half_exec=hi_half,
        has_dst_enc=has_dst,
        needs_move=needs_move,
        dst_enc=dst_enc,
        dst_enc_lo=dst_enc_lo,
        dst_enc_hi=dst_enc_hi,
        dst_is_scalar=dst_is_scalar,
        before_enc=before_enc,
        before_enc_lo=before_enc_lo,
        before_enc_hi=before_enc_hi,
        src_offsets=src_offsets,
        src_registers=registers,
        src_enc=np.array(src_enc, dtype=np.int8),
        src_enc_lo=np.array(src_enc_lo, dtype=np.int8),
        src_enc_hi=np.array(src_enc_hi, dtype=np.int8),
        src_divergent=np.array(src_div, dtype=bool),
        src_scalar_for_read=np.array(src_scalar, dtype=bool),
        addr_index=addr_index,
        addresses=addresses,
    )


def annotate_sites_events(kernel: Kernel, warp: WarpTrace):
    """Yield ``(event_index, (block_id, inst_index) | None)`` per event.

    The event-walk form of :func:`repro.experiments.staticdyn.annotate_sites`:
    events of one block body arrive in program order, so a counter per
    current block suffices.  The counter resets when the block id
    changes, after a ``BRA`` event, and on overflow.  ``BRA``
    terminators map to ``None``.
    """
    current_block = None
    index = 0
    for event_index, event in enumerate(warp.events):
        if event.opcode is Opcode.BRA:
            yield event_index, None
            current_block = None
            continue
        body = kernel.blocks[event.block_id].instructions
        if event.block_id != current_block or index >= len(body):
            current_block = event.block_id
            index = 0
        inst = body[index]
        if inst.opcode is not event.opcode:
            raise ValueError(
                f"trace desynchronized from kernel {kernel.name!r}: event "
                f"{event_index} is {event.opcode.name} but static site "
                f"b{event.block_id}:i{index} is {inst.opcode.name}"
            )
        yield event_index, (event.block_id, index)
        index += 1


def process_trace_events(trace: KernelTrace, arch, num_registers: int, static_widths=None):
    """Classify (tracker) and interpret (``ArchitectureView``) a whole
    event-form trace for one architecture: the per-event chain."""
    return process_classified(
        classify_trace(trace, num_registers),
        arch,
        trace.warp_size,
        static_widths=static_widths,
    )

def divergence_stats_events(classified) -> tuple[int, int, int]:
    """Figure 1 counts ``(total, divergent, divergent_scalar)`` by
    walking a classified stream."""
    total = divergent = divergent_scalar = 0
    for warp_events in classified:
        for item in warp_events:
            total += 1
            if item.divergent:
                divergent += 1
                if item.scalar_class is ScalarClass.DIVERGENT_SCALAR:
                    divergent_scalar += 1
    return total, divergent, divergent_scalar


def access_distribution_events(classified) -> AccessDistribution:
    """Figure 8 buckets by walking every source read of a classified
    stream: divergent readers first, then D=1 sources ("other"), then
    the source's enc prefix."""
    by_enc = {4: "scalar", 3: "3-byte", 2: "2-byte", 1: "1-byte", 0: "other"}
    distribution = AccessDistribution()
    for warp_events in classified:
        for item in warp_events:
            for source in item.sources:
                if item.divergent:
                    distribution.counts["divergent"] += 1
                elif source.encoding.divergent:
                    distribution.counts["other"] += 1
                else:
                    distribution.counts[by_enc[source.encoding.enc]] += 1
    return distribution

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
            total += total_energy(model, item.rf_accesses).rf_pj
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


def dynamic_static_scalar_fraction_events(
    kernel: Kernel, uniformity: UniformityResult, trace: KernelTrace
) -> float:
    """Share of events at ``PROVABLY_SCALAR`` sites, by an event walk:
    the event-walk form of staticdyn's ``coverage``."""
    total = trace.total_instructions
    if total == 0:
        return 0.0
    provable = 0
    for warp in trace.warps:
        for _, site in annotate_sites_events(kernel, warp):
            if (
                site is not None
                and uniformity.class_of(*site) is StaticScalarClass.PROVABLY_SCALAR
            ):
                provable += 1
    return provable / total


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


def classified_events(runner, abbr):
    """The tracker's classified stream of one runner benchmark's trace."""
    run = runner.run(abbr)
    return classify_trace(to_trace(run.columnar), run.built.kernel.num_registers)

def processed_events(runner, abbr, arch, classified=None):
    """``ArchitectureView`` output for one pair of a runner's benchmarks.

    ``classified`` defaults to the tracker's stream of the run's trace;
    the static width table is fed to ``static_compress`` as the runner
    does.
    """
    run = runner.run(abbr)
    widths = runner.static_widths(abbr) if arch.static_compression else None
    if classified is None:
        classified = classified_events(runner, abbr)
    return process_classified(
        classified,
        arch,
        run.columnar.warp_size,
        static_widths=widths,
    )


def reference_timing_and_power(runner, abbr, arch):
    """Timing and power of one pair through the per-event engines.

    The chain is the per-event tracker, ``ArchitectureView``, the
    cycle-level SM simulator and per-event power accounting, in the
    runner's configuration.
    """
    run = runner.run(abbr)
    processed = processed_events(runner, abbr, arch)
    timing = SmSimulator(
        lower_to_timing_ops(processed, arch, runner.config, run.columnar.warp_size),
        runner.config,
        extra_latency=arch.extra_pipeline_cycles,
        warps_per_cta=runner.warps_per_cta(abbr),
    ).run()
    power = account(
        PowerAccountant(arch, runner.params, runner.config), processed, timing
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
        return account(
            PowerAccountant(arch, params, runner.config),
            processed[key],
            runner.timing(abbr, arch),
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
        return account(PowerAccountant(arch, runner.params, config), processed, timing)

    return _sweep_points(
        parameter, scale_factors, names, lambda f: float(value_of(f)), report_of
    )
