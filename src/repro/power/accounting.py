"""Walk a processed trace + timing result and produce a power report.

One :class:`PowerAccountant` pairs an architecture with energy
parameters; :meth:`~PowerAccountant.account_columns` consumes the
per-event execution decisions (lanes active, register-file access
shapes, compressor activity) and the timing result (cycles, memory
traffic) and emits a :class:`~repro.power.report.PowerReport`.

Every energy component is linear in integer counts (exec-lane sums per
opcode, access counts per energy-distinct shape,
compressor/decompressor/instruction totals), so a processed stream
first reduces to a :class:`_PowerAggregates` and one evaluator turns
that into picojoules, iterating keys in sorted order.  Per-chunk
aggregates merge exactly (:func:`repro.merge.merge`), and the
per-event reference walk in
``tests/reference`` fills the same aggregates — two walks of
bit-identical processed streams produce bit-identical reports by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa.opcodes import OpCategory, category_of
from repro.obs.instrument import record_power_breakdown, record_rf_accesses_columns
from repro.obs.telemetry import get_telemetry
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.power.report import EnergyBreakdown, PowerReport
from repro.power.rf_energy import AccessEnergy, RegisterFileEnergyModel, TallyKey
from repro.regfile.access import ID_TO_ACCESS_KIND
from repro.regfile.layout import BankGeometry
from repro.scalar.columns import PARTIAL_WRITE_ID, ProcessedColumns
from repro.simt.trace import ID_TO_OPCODE
from repro.timing.sm import TimingResult


@dataclass
class _PowerAggregates:
    """Integer reduction of one processed stream (engine-independent).

    Everything the dynamic-energy report depends on, as exact integer
    counts: identical aggregates guarantee identical float output.
    """

    instructions: int = 0
    extra_instructions: int = 0
    extra_exec_lanes: int = 0  # sum of extra_instructions * active lanes
    compressor_ops: int = 0
    decompressor_ops: int = 0
    #: opcode id -> summed exec lanes (key present for every opcode
    #: that appears in the stream, even at zero lanes).
    exec_lanes_by_opcode: dict[int, int] = field(default_factory=dict)
    #: energy-distinct access shape -> count.
    access_tally: dict[TallyKey, int] = field(default_factory=dict)


class PowerAccountant:
    """Energy accounting for one architecture."""

    def __init__(
        self,
        arch: ArchitectureConfig,
        params: EnergyParams | None = None,
        config: GpuConfig | None = None,
        geometry: BankGeometry | None = None,
    ):
        self.arch = arch
        self.params = params or DEFAULT_ENERGY
        self.config = config or GpuConfig()
        if geometry is None and self.config.warp_size != 32:
            # Wider warps widen the bank: one 128-bit array per byte
            # position per 16 lanes, as in §3.2's memory-compiler result.
            geometry = BankGeometry(
                warp_size=self.config.warp_size,
                arrays_per_bank=self.config.warp_size // 4,
                array_bits=128,
            )
        self._rf_model = RegisterFileEnergyModel(arch, self.params, geometry)

    # ------------------------------------------------------------------
    def account_columns(
        self,
        columns: ProcessedColumns,
        timing: TimingResult,
    ) -> PowerReport:
        """Produce the power report from a columnar processed trace."""
        return self.account_aggregates(
            self.aggregates_from_columns(columns), timing
        )

    # ------------------------------------------------------------------
    def register_file_energy(self, columns: ProcessedColumns) -> AccessEnergy:
        """RF and crossbar energy of a columnar processed trace.

        The ``rf_pj``/``crossbar_pj`` that :meth:`account_columns` puts
        in the report's breakdown, without needing a timing result.
        """
        tally = self.aggregates_from_columns(columns).access_tally
        return self._rf_model.tally_energy(tally)

    # ------------------------------------------------------------------
    def aggregates_from_columns(
        self, columns: ProcessedColumns, warp_base: int = 0
    ) -> _PowerAggregates:
        """Reduce one columnar processed stream (or chunk) to aggregates.

        Also rolls the stream's register-file access shapes into the
        active telemetry registry — those counters are additive, so
        per-chunk calls sum to the whole-trace totals.  ``warp_base``
        (the global index of the stream's first warp) keeps chunked
        bank-attribution telemetry identical to the whole-trace pass.
        """
        telemetry = get_telemetry()
        if telemetry.enabled:
            record_rf_accesses_columns(
                telemetry,
                columns,
                {k: v.value for k, v in ID_TO_ACCESS_KIND.items()},
                self.config.register_file_banks,
                warp_base=warp_base,
            )

        agg = _PowerAggregates()
        agg.instructions = columns.num_events
        extra = columns.extra_instructions.astype(np.int64)
        agg.extra_instructions = int(extra.sum())
        agg.extra_exec_lanes = int(
            (extra * columns.active_lanes.astype(np.int64)).sum()
        )
        agg.compressor_ops = int(columns.compressor_ops.sum(dtype=np.int64))
        agg.decompressor_ops = int(columns.decompressor_ops.sum(dtype=np.int64))

        # Exec lanes per opcode: key set = opcodes that appear at all.
        if columns.num_events:
            lane_sums = np.zeros(len(ID_TO_OPCODE), dtype=np.int64)
            np.add.at(lane_sums, columns.opcode_ids, columns.exec_lanes)
            present = np.unique(columns.opcode_ids)
            agg.exec_lanes_by_opcode = {
                int(opcode_id): int(lane_sums[opcode_id])
                for opcode_id in present
            }

        # Access tally: pack each row's energy-distinct fields into one
        # int64 and count distinct packed values.  Partial writes carry
        # (popcount, arrays-activated) instead of encodings; under the
        # baseline layout, arrays depend on the full mask, so those are
        # resolved per distinct mask through the model's memo.
        kind_ids = columns.acc_kind_ids
        if kind_ids.size:
            rf_model = self._rf_model
            partial = kind_ids == PARTIAL_WRITE_ID
            enc = np.where(partial, 0, columns.acc_enc).astype(np.int64)
            enc_lo = np.where(partial, 0, columns.acc_enc_lo).astype(np.int64)
            enc_hi = np.where(partial, 0, columns.acc_enc_hi).astype(np.int64)
            half = np.where(partial, False, columns.acc_half)
            sidecar = columns.acc_sidecar

            popcount = np.zeros(len(kind_ids), dtype=np.int64)
            arrays = np.zeros(len(kind_ids), dtype=np.int64)
            partial_idx = np.flatnonzero(partial)
            if len(partial_idx):
                partial_masks = columns.acc_masks[partial_idx]
                distinct_masks, inverse = np.unique(
                    partial_masks, return_inverse=True
                )
                mask_pop = np.empty(len(distinct_masks), dtype=np.int64)
                mask_arrays = np.empty(len(distinct_masks), dtype=np.int64)
                for position, mask in enumerate(distinct_masks.tolist()):
                    mask_pop[position] = int(mask).bit_count()
                    mask_arrays[position] = rf_model.partial_arrays(int(mask))
                popcount[partial_idx] = mask_pop[inverse]
                arrays[partial_idx] = mask_arrays[inverse]

            packed = (
                (kind_ids.astype(np.int64) << 26)
                | (enc << 23)
                | (enc_lo << 20)
                | (enc_hi << 17)
                | (half.astype(np.int64) << 16)
                | (sidecar.astype(np.int64) << 15)
                | (popcount << 8)
                | arrays
            )
            distinct, counts = np.unique(packed, return_counts=True)
            tally = agg.access_tally
            for value, count in zip(distinct.tolist(), counts.tolist()):
                key: TallyKey = (
                    (value >> 26) & 0xF,
                    (value >> 23) & 0x7,
                    (value >> 20) & 0x7,
                    (value >> 17) & 0x7,
                    bool((value >> 16) & 1),
                    bool((value >> 15) & 1),
                    (value >> 8) & 0x7F,
                    value & 0xFF,
                )
                tally[key] = count

        return agg

    # ------------------------------------------------------------------
    def account_aggregates(
        self,
        agg: _PowerAggregates,
        timing: TimingResult,
    ) -> PowerReport:
        """Evaluate aggregates into a power report.

        A pass builds one :class:`_PowerAggregates` per chunk with
        :meth:`aggregates_from_columns` and sums them with
        :func:`repro.merge.merge`; this evaluates the merged total
        exactly as :meth:`account_columns` would for the whole trace.
        """
        params = self.params
        breakdown = EnergyBreakdown()

        for opcode_id in sorted(agg.exec_lanes_by_opcode):
            opcode = ID_TO_OPCODE[opcode_id]
            exec_pj = agg.exec_lanes_by_opcode[opcode_id] * params.exec_lane_pj(
                opcode
            )
            category = category_of(opcode)
            if category is OpCategory.SFU:
                breakdown.exec_sfu_pj += exec_pj
            elif category is OpCategory.MEM:
                breakdown.exec_mem_pj += exec_pj
            else:
                breakdown.exec_alu_pj += exec_pj

        rf_energy = self._rf_model.tally_energy(agg.access_tally)
        breakdown.rf_pj += rf_energy.rf_pj
        breakdown.crossbar_pj += rf_energy.crossbar_pj

        breakdown.compression_pj += (
            agg.compressor_ops * params.compressor_op_pj
            + agg.decompressor_ops * params.decompressor_op_pj
        )

        # Front-end energy for every instruction plus any inserted
        # decompress-move/spill instructions.
        breakdown.fds_pj += (agg.instructions + agg.extra_instructions) * (
            params.fds_per_instruction_pj
        )
        # Inserted moves also execute (full-width register move).
        breakdown.exec_alu_pj += agg.extra_exec_lanes * params.alu_lane_pj

        counts = timing.memory_counts
        breakdown.memory_pj += counts.l1_accesses * params.l1_access_pj
        breakdown.memory_pj += counts.l2_accesses * params.l2_access_pj
        breakdown.memory_pj += counts.dram_accesses * params.dram_access_pj
        breakdown.memory_pj += counts.shared_accesses * params.shared_access_pj

        telemetry = get_telemetry()
        if telemetry.enabled:
            record_power_breakdown(telemetry, self.arch.name, breakdown)

        static_w = params.sm_static_w + params.uncore_share_static_w
        return PowerReport(
            arch_name=self.arch.name,
            cycles=timing.cycles,
            instructions=timing.useful_instructions,
            frequency_ghz=self.config.sm_frequency_ghz,
            static_w=static_w,
            breakdown=breakdown,
        )
