"""Per-event power accounting: the reference of the columnar accountant.

:func:`account` walks processed events one at a time and fills the
same :class:`~repro.power.accounting._PowerAggregates` that
:meth:`~repro.power.accounting.PowerAccountant.aggregates_from_columns`
builds with array reductions; both are then evaluated by the
accountant's one shared evaluator, so two engines fed bit-identical
processed streams produce bit-identical reports.  :func:`tally_key`
and :func:`total_energy` are the per-access forms of the register-file
energy model's tally evaluation.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.telemetry import Telemetry, get_telemetry
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.power.report import PowerReport
from repro.power.rf_energy import AccessEnergy, RegisterFileEnergyModel, TallyKey
from repro.regfile.access import ACCESS_KIND_TO_ID, RegisterAccess
from repro.scalar.columns import PARTIAL_WRITE_ID
from repro.simt.trace import OPCODE_TO_ID
from repro.timing.sm import TimingResult


def record_rf_accesses(
    telemetry: Telemetry,
    accesses: Iterable[Any],
    warp_index: int,
    num_banks: int,
) -> None:
    """Roll one event's register-file accesses into the registry.

    The per-event form of :func:`repro.obs.instrument.record_rf_accesses_columns`.
    Bank attribution uses the standard interleaved mapping —
    architectural register *r* of warp *w* lands in bank
    ``(r + w) % num_banks``.
    """
    for access in accesses:
        kind = access.kind.value
        telemetry.count("rf_accesses", kind=kind)
        if access.sidecar:
            telemetry.count("sidecar_accesses")
        telemetry.count(
            "regfile_bank_activations",
            bank=(access.register + warp_index) % num_banks,
            op="read" if "read" in kind else "write",
        )


def tally_key(model: RegisterFileEnergyModel, access: RegisterAccess) -> TallyKey:
    """Reduce one access to the fields its energy depends on."""
    kind_id = ACCESS_KIND_TO_ID[access.kind]
    if kind_id == PARTIAL_WRITE_ID:
        mask = int(access.active_mask)
        return (
            kind_id,
            0,
            0,
            0,
            False,
            bool(access.sidecar),
            mask.bit_count(),
            model.partial_arrays(mask),
        )
    return (
        kind_id,
        int(access.enc),
        int(access.enc_lo),
        int(access.enc_hi),
        bool(access.half_compressed),
        bool(access.sidecar),
        0,
        0,
    )


def total_energy(
    model: RegisterFileEnergyModel, accesses: tuple[RegisterAccess, ...]
) -> AccessEnergy:
    """Summed energy of one event's accesses."""
    rf = 0.0
    crossbar = 0.0
    for access in accesses:
        energy = model.energy_of(access)
        rf += energy.rf_pj
        crossbar += energy.crossbar_pj
    return AccessEnergy(rf_pj=rf, crossbar_pj=crossbar)


def account(
    accountant: PowerAccountant,
    processed: list[list],
    timing: TimingResult,
) -> PowerReport:
    """Produce the power report for one benchmark run (per-event)."""
    telemetry = get_telemetry()
    observe = telemetry.enabled
    num_banks = accountant.config.register_file_banks
    rf_model = accountant._rf_model

    agg = _PowerAggregates()
    lanes_by_opcode = agg.exec_lanes_by_opcode
    tally = agg.access_tally
    for warp_index, warp_events in enumerate(processed):
        for item in warp_events:
            if observe:
                record_rf_accesses(
                    telemetry, item.rf_accesses, warp_index, num_banks
                )
            event = item.classified.event
            opcode_id = OPCODE_TO_ID[event.opcode]
            lanes_by_opcode[opcode_id] = (
                lanes_by_opcode.get(opcode_id, 0) + item.exec_lanes
            )
            for access in item.rf_accesses:
                key = tally_key(rf_model, access)
                tally[key] = tally.get(key, 0) + 1
            agg.instructions += 1
            agg.extra_instructions += item.extra_instructions
            agg.extra_exec_lanes += (
                item.extra_instructions * event.active_lane_count()
            )
            agg.compressor_ops += item.compressor_ops
            agg.decompressor_ops += item.decompressor_ops

    return accountant.account_aggregates(agg, timing)
