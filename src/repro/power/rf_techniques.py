"""Register-file dynamic energy under the four Figure 12 techniques.

* ``baseline``   — conventional banked RF, full accesses.
* ``scalar_rf``  — scalar-only register file [Gilani et al., HPCA'13].
* ``wc_bdi``     — Warped-Compression [Lee et al., ISCA'15]: BDI-packed
  registers in the data arrays; the base shares the arrays with the
  deltas, so the same compression ratio activates one more array than
  our scheme, and the adder-based codec costs ~3x our comparator codec
  (the paper's 19-30% relative-cost numbers, inverted).
* ``ours``       — the byte-wise prefix compression of §3.

All four see the same trace, so the values seen are identical; only
the storage/access model differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compression.bdi import BDI_MODES, BdiMode, bdi_modes
from repro.config import ArchitectureConfig
from repro.errors import ConfigError
from repro.merge import fixed
from repro.power.accounting import PowerAccountant
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.regfile.layout import BankGeometry, BaselineLayout
from repro.scalar.columns import ProcessedColumns
from repro.simt.trace import ColumnarTrace

#: Figure 12 series names, in the paper's order.
RF_TECHNIQUES = ("baseline", "scalar_rf", "wc_bdi", "ours")

#: BDI codec energy relative to ours: our compressor consumes 19-30% of
#: Warped-Compression's adder array + packing network (§5.3).
_BDI_CODEC_FACTOR = 3.3


@dataclass
class RfEnergyResult:
    """RF dynamic energy of one technique over one trace."""

    technique: str
    rf_pj: float
    accesses: int

    def normalized_to(self, baseline: "RfEnergyResult") -> float:
        if baseline.rf_pj == 0:
            return 0.0
        return self.rf_pj / baseline.rf_pj


def technique_architecture(technique: str) -> ArchitectureConfig:
    """The modeled architecture whose RF accesses a technique counts.

    ``wc_bdi`` has none: it is a storage model applied to the trace.
    """
    if technique == "baseline":
        return ArchitectureConfig.baseline()
    if technique == "scalar_rf":
        return ArchitectureConfig.alu_scalar()
    if technique == "ours":
        return ArchitectureConfig.gscalar()
    raise ConfigError(f"no architecture view for technique {technique!r}")


def rf_energy_for_technique(
    columns: ColumnarTrace | ProcessedColumns,
    technique: str,
    params: EnergyParams | None = None,
) -> RfEnergyResult:
    """RF dynamic energy of one technique.

    ``wc_bdi`` replays the trace's register writes, so ``columns`` is
    the :class:`~repro.simt.trace.ColumnarTrace`.  The other three
    techniques count the register-file accesses of their architecture's
    interpretation, so ``columns`` is the
    :class:`~repro.scalar.columns.ProcessedColumns` of
    :func:`technique_architecture`; their energy comes from the same
    tally evaluator as the ``rf_pj`` of that architecture's power report.
    """
    params = params or DEFAULT_ENERGY
    if technique == "wc_bdi":
        return wc_bdi_counts(columns).energy(params)
    if technique not in RF_TECHNIQUES:
        raise ConfigError(
            f"unknown technique {technique!r}; known: {', '.join(RF_TECHNIQUES)}"
        )
    accountant = PowerAccountant(technique_architecture(technique), params)
    return RfEnergyResult(
        technique=technique,
        rf_pj=accountant.register_file_energy(columns).rf_pj,
        accesses=columns.num_accesses,
    )


@dataclass(frozen=True)
class WcBdiCounts:
    """Warped-Compression's RF activity over one trace, as integer
    counts that :meth:`energy` prices under any energy parameters."""

    warp_size: int = fixed()
    mode_accesses: tuple[int, ...]  # data-array accesses per BDI_MODES entry
    moves: int  # decompress-moves ahead of divergent writes
    partial_write_arrays: int  # arrays the divergent writes activate
    accesses: int

    def energy(self, params: EnergyParams) -> RfEnergyResult:
        """The RF dynamic energy of these counts under ``params``."""
        array_bytes = BankGeometry(warp_size=self.warp_size).array_bits // 8
        total = 0.0
        for mode, count in zip(BDI_MODES, self.mode_accesses):
            total += count * _bdi_access_pj(mode, self.warp_size, array_bytes, params)
        total += self.moves * params.rf_full_access_pj
        total += self.partial_write_arrays * params.rf_array_pj
        return RfEnergyResult(technique="wc_bdi", rf_pj=total, accesses=self.accesses)


def wc_bdi_counts(trace: ColumnarTrace) -> WcBdiCounts:
    """Warped-Compression's RF activity with per-register BDI state.

    Every full-mask write leaves its register in the BDI mode of its
    value; a divergent write leaves it uncompressed (Warped-Compression
    also stores divergent writes uncompressed, avoiding the
    read-modify-write) after a decompress-move of a compressed previous
    value.  Each source read touches the mode its register's latest
    earlier write left it in (:meth:`ColumnarTrace.latest_writes`).
    """
    warp_size = trace.warp_size
    uncompressed = BDI_MODES.index(BdiMode.UNCOMPRESSED)

    writes = np.flatnonzero((trace.dst >= 0) & (trace.values_index >= 0))
    divergent = trace.masks[writes] != np.uint64((1 << warp_size) - 1)
    full_writes = writes[~divergent]
    divergent_writes = writes[divergent]
    stored = np.full(trace.num_events, uncompressed, dtype=np.int8)
    stored[full_writes] = bdi_modes(trace.values[trace.values_index[full_writes]])

    def modes_before(events: np.ndarray, registers: np.ndarray) -> np.ndarray:
        last = trace.latest_writes(events, registers)
        return np.where(last >= 0, stored[last], uncompressed)

    src_events = trace.source_events()
    read_modes = modes_before(src_events, trace.src_flat)
    previous = modes_before(divergent_writes, trace.dst[divergent_writes])
    moved = previous[previous != uncompressed]

    mode_counts = (
        np.bincount(read_modes, minlength=len(BDI_MODES))
        + np.bincount(stored[full_writes], minlength=len(BDI_MODES))
        + np.bincount(moved, minlength=len(BDI_MODES))
    )
    baseline_layout = BaselineLayout(BankGeometry(warp_size=warp_size))
    masks, mask_counts = np.unique(trace.masks[divergent_writes], return_counts=True)
    arrays = sum(
        count * baseline_layout.arrays_for_partial_write(int(mask))
        for mask, count in zip(masks.tolist(), mask_counts.tolist())
    )
    return WcBdiCounts(
        warp_size=warp_size,
        mode_accesses=tuple(mode_counts.tolist()),
        moves=int(moved.size),
        partial_write_arrays=int(arrays),
        accesses=int(src_events.size + writes.size + 2 * moved.size),
    )


def _bdi_access_pj(
    mode: BdiMode, warp_size: int, array_bytes: int, params: EnergyParams
) -> float:
    """Energy of touching a BDI-form register in the data arrays.

    The base and packed deltas live in the data arrays, so the bytes
    moved include the 4-byte base; arrays activate at 16-byte
    granularity.
    """
    if mode is BdiMode.UNCOMPRESSED:
        payload_bytes = warp_size * 4
    else:
        payload_bytes = 4 + warp_size * mode.delta_bytes
    arrays = math.ceil(payload_bytes / array_bytes)
    total_arrays = (warp_size * 4) // array_bytes
    arrays = min(arrays, total_arrays)
    # Mode tag lookup (2 bits/register) — comparable to our EBR access.
    return arrays * params.rf_array_pj + 0.5 * params.sidecar_pj
