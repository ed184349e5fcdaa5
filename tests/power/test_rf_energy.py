"""Unit tests for per-access register-file energy."""

import pytest

from repro.config import ArchitectureConfig
from repro.power.energy import DEFAULT_ENERGY
from repro.power.rf_energy import RegisterFileEnergyModel
from repro.regfile.access import AccessKind, RegisterAccess

from tests.reference.power import tally_key, total_energy

BASELINE_MODEL = RegisterFileEnergyModel(ArchitectureConfig.baseline(), DEFAULT_ENERGY)
GSCALAR_MODEL = RegisterFileEnergyModel(ArchitectureConfig.gscalar(), DEFAULT_ENERGY)


class TestAccessShapes:
    def test_full_read(self):
        energy = BASELINE_MODEL.energy_of(
            RegisterAccess(kind=AccessKind.FULL_READ, register=0)
        )
        assert energy.rf_pj == pytest.approx(DEFAULT_ENERGY.rf_full_access_pj)
        assert energy.crossbar_pj == pytest.approx(
            128 * DEFAULT_ENERGY.crossbar_per_byte_pj
        )

    def test_scalar_read_costs_sidecar_only(self):
        energy = GSCALAR_MODEL.energy_of(
            RegisterAccess(kind=AccessKind.SCALAR_READ, register=0, enc=4, sidecar=True)
        )
        assert energy.rf_pj == pytest.approx(DEFAULT_ENERGY.sidecar_pj)
        assert energy.rf_pj < 0.06 * DEFAULT_ENERGY.rf_full_access_pj

    def test_compressed_read_scales_with_prefix(self):
        def rf_for(enc):
            return GSCALAR_MODEL.energy_of(
                RegisterAccess(
                    kind=AccessKind.COMPRESSED_READ,
                    register=0,
                    enc=enc,
                    enc_lo=enc,
                    enc_hi=enc,
                    half_compressed=True,
                    sidecar=True,
                )
            ).rf_pj

        assert rf_for(3) < rf_for(2) < rf_for(1) < rf_for(0)
        # 3-byte prefix: 2 of 8 arrays + sidecar.
        expected = 2 * DEFAULT_ENERGY.rf_array_pj + DEFAULT_ENERGY.sidecar_pj
        assert rf_for(3) == pytest.approx(expected)

    def test_half_compression_uses_per_half_counts(self):
        energy = GSCALAR_MODEL.energy_of(
            RegisterAccess(
                kind=AccessKind.COMPRESSED_READ,
                register=0,
                enc=0,
                enc_lo=4,
                enc_hi=2,
                half_compressed=True,
                sidecar=True,
            )
        )
        expected = 2 * DEFAULT_ENERGY.rf_array_pj + DEFAULT_ENERGY.sidecar_pj
        assert energy.rf_pj == pytest.approx(expected)

    def test_partial_write_baseline_vs_rotated(self):
        access = RegisterAccess(
            kind=AccessKind.PARTIAL_WRITE, register=0, active_mask=0x1, sidecar=True
        )
        rotated = GSCALAR_MODEL.energy_of(access).rf_pj
        baseline = BASELINE_MODEL.energy_of(
            RegisterAccess(kind=AccessKind.PARTIAL_WRITE, register=0, active_mask=0x1)
        ).rf_pj
        # One active lane: baseline touches one word-array, byte rotation
        # lights the whole bank (§3.3 last paragraph).
        assert baseline == pytest.approx(DEFAULT_ENERGY.rf_array_pj)
        assert rotated > baseline

    def test_scalar_rf_access(self):
        model = RegisterFileEnergyModel(ArchitectureConfig.alu_scalar(), DEFAULT_ENERGY)
        energy = model.energy_of(
            RegisterAccess(kind=AccessKind.SCALAR_RF_READ, register=0)
        )
        assert energy.rf_pj == pytest.approx(DEFAULT_ENERGY.scalar_rf_pj)


class TestTotals:
    def test_total_energy_sums(self):
        accesses = (
            RegisterAccess(kind=AccessKind.FULL_READ, register=0),
            RegisterAccess(kind=AccessKind.FULL_WRITE, register=1),
        )
        total = total_energy(BASELINE_MODEL, accesses)
        single = BASELINE_MODEL.energy_of(accesses[0])
        assert total.rf_pj == pytest.approx(2 * single.rf_pj)
        assert total.total_pj == pytest.approx(2 * single.total_pj)


class TestTallyAggregation:
    """The bincount-style tally path matches summed per-access energy."""

    ACCESSES = [
        RegisterAccess(kind=AccessKind.FULL_READ, register=3),
        RegisterAccess(kind=AccessKind.FULL_READ, register=9),
        RegisterAccess(
            kind=AccessKind.COMPRESSED_READ, register=1, enc=2, sidecar=True
        ),
        RegisterAccess(
            kind=AccessKind.COMPRESSED_WRITE,
            register=4,
            enc=1,
            enc_lo=1,
            enc_hi=3,
            half_compressed=True,
            sidecar=True,
        ),
        RegisterAccess(
            kind=AccessKind.SCALAR_READ, register=2, enc=4, sidecar=True
        ),
        RegisterAccess(
            kind=AccessKind.PARTIAL_WRITE, register=5, active_mask=0x0F0F
        ),
        RegisterAccess(
            kind=AccessKind.PARTIAL_WRITE,
            register=5,
            active_mask=0x0F0F,
            sidecar=True,
        ),
    ]

    @pytest.mark.parametrize("model", [BASELINE_MODEL, GSCALAR_MODEL])
    def test_tally_energy_equals_summed_energy_of(self, model):
        tally = {}
        for access in self.ACCESSES:
            key = tally_key(model, access)
            tally[key] = tally.get(key, 0) + 1
        aggregated = model.tally_energy(tally)
        rf = sum(model.energy_of(a).rf_pj for a in self.ACCESSES)
        crossbar = sum(model.energy_of(a).crossbar_pj for a in self.ACCESSES)
        assert aggregated.rf_pj == pytest.approx(rf)
        assert aggregated.crossbar_pj == pytest.approx(crossbar)

    @pytest.mark.parametrize("model", [BASELINE_MODEL, GSCALAR_MODEL])
    def test_energy_of_key_matches_energy_of(self, model):
        for access in self.ACCESSES:
            key = tally_key(model, access)
            via_key = model.energy_of_key(key)
            direct = model.energy_of(access)
            assert via_key.rf_pj == pytest.approx(direct.rf_pj)
            assert via_key.crossbar_pj == pytest.approx(direct.crossbar_pj)

    def test_identical_shapes_collapse_to_one_key(self):
        a = RegisterAccess(kind=AccessKind.FULL_READ, register=3)
        b = RegisterAccess(kind=AccessKind.FULL_READ, register=200)
        assert tally_key(BASELINE_MODEL, a) == tally_key(BASELINE_MODEL, b)

    def test_partial_write_keys_split_by_mask_shape(self):
        narrow = RegisterAccess(
            kind=AccessKind.PARTIAL_WRITE, register=0, active_mask=0x1
        )
        wide = RegisterAccess(
            kind=AccessKind.PARTIAL_WRITE, register=0, active_mask=0xFFFF
        )
        assert tally_key(GSCALAR_MODEL, narrow) != tally_key(GSCALAR_MODEL, wide)

    def test_partial_arrays_is_memoized_and_correct(self):
        mask = 0x00FF
        first = BASELINE_MODEL.partial_arrays(mask)
        assert BASELINE_MODEL.partial_arrays(mask) == first
        direct = BASELINE_MODEL.energy_of(
            RegisterAccess(
                kind=AccessKind.PARTIAL_WRITE, register=0, active_mask=mask
            )
        )
        assert first * DEFAULT_ENERGY.rf_array_pj == pytest.approx(direct.rf_pj)
