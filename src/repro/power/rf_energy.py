"""Register-file and crossbar energy per access.

Turns the :class:`~repro.regfile.access.RegisterAccess` records emitted
by the architecture views into picojoules, using the arrays-activated
arithmetic of :mod:`repro.regfile.layout`:

* a full access activates all eight 128-bit arrays,
* an ``n``-byte-prefix compressed access activates ``2*(4-n)`` arrays
  (or the per-half count under half-register compression) plus the
  sidecar,
* a scalar access touches only the sidecar (5.2% of a full access),
* a divergent partial write touches all eight arrays under byte
  rotation but only the masked word-arrays under the baseline layout
  (§3.3), and
* crossbar energy scales with the bytes actually moved — prefix bytes
  never travel (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ArchitectureConfig
from repro.errors import ConfigError
from repro.power.energy import EnergyParams
from repro.regfile.access import (
    ACCESS_KIND_TO_ID,
    ID_TO_ACCESS_KIND,
    AccessKind,
    RegisterAccess,
)
from repro.regfile.layout import BankGeometry, BaselineLayout, ByteRotatedLayout

#: Tally keys: every field access energy depends on, with the
#: mask-dependent PARTIAL_WRITE reduced to (popcount, arrays-activated).
#: ``(kind_id, enc, enc_lo, enc_hi, half_compressed, sidecar, popcount,
#: arrays)`` — the last two are zero except for partial writes.
TallyKey = tuple[int, int, int, int, bool, bool, int, int]

_PARTIAL_WRITE_ID = ACCESS_KIND_TO_ID[AccessKind.PARTIAL_WRITE]


@dataclass(frozen=True)
class AccessEnergy:
    """Energy split of one register access."""

    rf_pj: float
    crossbar_pj: float

    @property
    def total_pj(self) -> float:
        return self.rf_pj + self.crossbar_pj


class RegisterFileEnergyModel:
    """Per-access energy under a given architecture."""

    def __init__(
        self,
        arch: ArchitectureConfig,
        params: EnergyParams,
        geometry: BankGeometry | None = None,
    ):
        self.arch = arch
        self.params = params
        self.geometry = geometry or BankGeometry()
        self._rotated = ByteRotatedLayout(self.geometry)
        self._baseline = BaselineLayout(self.geometry)
        self._partial_arrays_memo: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _arrays_for_compressed(self, access: RegisterAccess) -> int:
        if access.half_compressed:
            return self._rotated.arrays_for_half_compressed_access(
                access.enc_lo, access.enc_hi
            )
        return self._rotated.arrays_for_compressed_access(access.enc)

    def _data_bytes_for_compressed(self, access: RegisterAccess) -> int:
        lanes = self.geometry.warp_size
        if access.half_compressed:
            half = lanes // 2
            return (4 - access.enc_lo) * half + (4 - access.enc_hi) * half
        return (4 - access.enc) * lanes

    # ------------------------------------------------------------------
    def energy_of(self, access: RegisterAccess) -> AccessEnergy:
        """Energy (register file + crossbar) of one access."""
        params = self.params
        kind = access.kind
        lanes = self.geometry.warp_size
        full_bytes = lanes * 4

        if kind in (AccessKind.FULL_READ, AccessKind.FULL_WRITE):
            rf = params.rf_full_access_pj
            if access.sidecar:
                rf += params.sidecar_pj
            return AccessEnergy(rf_pj=rf, crossbar_pj=params.crossbar_per_byte_pj * full_bytes)

        if kind in (AccessKind.COMPRESSED_READ, AccessKind.COMPRESSED_WRITE):
            arrays = self._arrays_for_compressed(access)
            rf = arrays * params.rf_array_pj
            if access.sidecar:
                rf += params.sidecar_pj
            data_bytes = self._data_bytes_for_compressed(access)
            # The base value travels to/from the decompressor (<= 8 B).
            return AccessEnergy(
                rf_pj=rf,
                crossbar_pj=params.crossbar_per_byte_pj * (data_bytes + 4),
            )

        if kind in (AccessKind.SCALAR_READ, AccessKind.SCALAR_WRITE):
            return AccessEnergy(
                rf_pj=params.sidecar_pj,
                crossbar_pj=params.crossbar_per_byte_pj * 4,
            )

        if kind is AccessKind.PARTIAL_WRITE:
            active_bytes = int(access.active_mask).bit_count() * 4
            if self.arch.register_compression:
                # Byte rotation scatters every lane's bytes over all
                # arrays: the whole bank lights up (§3.3).
                rf = float(self._rotated.arrays_for_divergent_write()) * params.rf_array_pj
                if access.sidecar:
                    rf += params.sidecar_pj
            else:
                arrays = self._baseline.arrays_for_partial_write(access.active_mask)
                rf = arrays * params.rf_array_pj
            return AccessEnergy(
                rf_pj=rf, crossbar_pj=params.crossbar_per_byte_pj * active_bytes
            )

        if kind in (AccessKind.SCALAR_RF_READ, AccessKind.SCALAR_RF_WRITE):
            return AccessEnergy(
                rf_pj=params.scalar_rf_pj,
                crossbar_pj=params.crossbar_per_byte_pj * 4,
            )

        raise ConfigError(f"unhandled access kind {kind}")

    # ------------------------------------------------------------------
    # Tally evaluation: the aggregated form of energy_of.  Energy is a
    # pure function of the tally key, so a whole access stream reduces
    # to key -> count and one energy evaluation per distinct key, summed
    # in sorted-key order.
    # ------------------------------------------------------------------
    def partial_arrays(self, active_mask: int) -> int:
        """Arrays activated by a divergent partial write of this mask."""
        if self.arch.register_compression:
            return self._rotated.arrays_for_divergent_write()
        memo = self._partial_arrays_memo
        arrays = memo.get(active_mask)
        if arrays is None:
            arrays = self._baseline.arrays_for_partial_write(active_mask)
            memo[active_mask] = arrays
        return arrays

    def energy_of_key(self, key: TallyKey) -> AccessEnergy:
        """Energy of one access identified by its tally key."""
        kind_id, enc, enc_lo, enc_hi, half, sidecar, popcount, arrays = key
        if kind_id == _PARTIAL_WRITE_ID:
            params = self.params
            # Mirrors the PARTIAL_WRITE branch of energy_of exactly,
            # with the mask pre-reduced to (popcount, arrays).
            if self.arch.register_compression:
                rf = float(arrays) * params.rf_array_pj
                if sidecar:
                    rf += params.sidecar_pj
            else:
                rf = arrays * params.rf_array_pj
            return AccessEnergy(
                rf_pj=rf,
                crossbar_pj=params.crossbar_per_byte_pj * (popcount * 4),
            )
        return self.energy_of(
            RegisterAccess(
                kind=ID_TO_ACCESS_KIND[kind_id],
                register=0,
                enc=enc,
                enc_lo=enc_lo,
                enc_hi=enc_hi,
                half_compressed=half,
                sidecar=sidecar,
            )
        )

    def tally_energy(self, tally: dict[TallyKey, int]) -> AccessEnergy:
        """Total energy of a key -> count access tally.

        Keys are evaluated in sorted order so any two engines producing
        the same tally get the same floating-point sum.
        """
        rf = 0.0
        crossbar = 0.0
        for key in sorted(tally):
            energy = self.energy_of_key(key)
            count = tally[key]
            rf += count * energy.rf_pj
            crossbar += count * energy.crossbar_pj
        return AccessEnergy(rf_pj=rf, crossbar_pj=crossbar)
