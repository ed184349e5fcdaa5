"""Unit tests for the §4 scalar-eligibility rules."""

import pytest

from repro.compression.encoding import RegisterEncoding
from repro.isa.opcodes import OpCategory
from repro.scalar.eligibility import ScalarClass

from tests.reference.classify import (
    SourceRead,
    classify_instruction,
    classify_source_read,
)

FULL_MASK = 0xFFFFFFFF
PARTIAL_MASK = 0x0000FFFF


def scalar_source():
    return classify_source_read(
        RegisterEncoding(enc=4, base=7, enc_lo=4, enc_hi=4, full_scalar=True),
        reader_divergent=False,
        reader_mask=FULL_MASK,
    )


def vector_source():
    return classify_source_read(
        RegisterEncoding(enc=1, base=7), reader_divergent=False, reader_mask=FULL_MASK
    )


class TestSourceRead:
    def test_scalar_register_is_scalar_source(self):
        assert scalar_source().scalar_for_read

    def test_partial_prefix_is_not_scalar(self):
        assert not vector_source().scalar_for_read

    def test_divergent_register_needs_exact_mask_match(self):
        encoding = RegisterEncoding(enc=4, base=PARTIAL_MASK, divergent=True)
        match = classify_source_read(encoding, True, PARTIAL_MASK)
        assert match.scalar_for_read
        mismatch = classify_source_read(encoding, True, 0x000000FF)
        assert not mismatch.scalar_for_read

    def test_divergent_register_never_scalar_for_convergent_reader(self):
        # The Figure 7(b) example: enc==1111 but the mask is stale.
        encoding = RegisterEncoding(enc=4, base=PARTIAL_MASK, divergent=True)
        read = classify_source_read(encoding, False, FULL_MASK)
        assert not read.scalar_for_read

    def test_divergent_register_with_low_enc_not_scalar(self):
        encoding = RegisterEncoding(enc=2, base=PARTIAL_MASK, divergent=True)
        read = classify_source_read(encoding, True, PARTIAL_MASK)
        assert not read.scalar_for_read

    def test_nondivergent_scalar_usable_under_any_divergent_mask(self):
        # A register written scalar by a convergent instruction holds
        # one value in every lane, so any divergent reader sees scalar.
        encoding = RegisterEncoding(enc=4, base=7)
        read = classify_source_read(encoding, True, 0x5)
        assert read.scalar_for_read

    def test_half_flags(self):
        encoding = RegisterEncoding(
            enc=0, base=1, enc_lo=4, enc_hi=2, base_lo=1, base_hi=9
        )
        read = classify_source_read(encoding, False, FULL_MASK)
        assert read.lo_scalar and not read.hi_scalar

    def test_half_flags_cleared_for_divergent_registers(self):
        encoding = RegisterEncoding(enc=4, base=3, divergent=True, enc_lo=4, enc_hi=4)
        read = classify_source_read(encoding, True, 3)
        assert not read.lo_scalar and not read.hi_scalar


def _sources(*reads):
    return tuple(
        SourceRead(
            register=i,
            encoding=r.encoding,
            scalar_for_read=r.scalar_for_read,
            lo_scalar=r.lo_scalar,
            hi_scalar=r.hi_scalar,
        )
        for i, r in enumerate(reads)
    )


class TestInstructionClassification:
    def test_alu_scalar(self):
        cls, lo, hi = classify_instruction(
            OpCategory.ALU, False, _sources(scalar_source(), scalar_source()), False
        )
        assert cls is ScalarClass.ALU_SCALAR
        assert lo and hi

    def test_sfu_and_mem_scalar(self):
        for category, expected in (
            (OpCategory.SFU, ScalarClass.SFU_SCALAR),
            (OpCategory.MEM, ScalarClass.MEM_SCALAR),
        ):
            cls, _, _ = classify_instruction(
                category, False, _sources(scalar_source()), False
            )
            assert cls is expected

    def test_no_sources_is_scalar(self):
        cls, _, _ = classify_instruction(OpCategory.ALU, False, (), False)
        assert cls is ScalarClass.ALU_SCALAR

    def test_varying_special_disqualifies(self):
        cls, _, _ = classify_instruction(OpCategory.ALU, False, (), True)
        assert cls is ScalarClass.NOT_ELIGIBLE

    def test_control_never_eligible(self):
        cls, _, _ = classify_instruction(OpCategory.CTRL, False, (), False)
        assert cls is ScalarClass.NOT_ELIGIBLE

    def test_mixed_sources_not_scalar(self):
        cls, _, _ = classify_instruction(
            OpCategory.ALU, False, _sources(scalar_source(), vector_source()), False
        )
        assert cls is ScalarClass.NOT_ELIGIBLE

    def test_half_scalar_single_half(self):
        lo_only = classify_source_read(
            RegisterEncoding(enc=0, base=1, enc_lo=4, enc_hi=0),
            False,
            FULL_MASK,
        )
        cls, lo, hi = classify_instruction(
            OpCategory.ALU, False, _sources(lo_only, scalar_source()), False
        )
        assert cls is ScalarClass.HALF_SCALAR
        assert lo and not hi

    def test_both_halves_scalar_but_distinct(self):
        both = classify_source_read(
            RegisterEncoding(enc=0, base=1, enc_lo=4, enc_hi=4, full_scalar=False),
            False,
            FULL_MASK,
        )
        cls, lo, hi = classify_instruction(
            OpCategory.ALU, False, _sources(both), False
        )
        assert cls is ScalarClass.HALF_SCALAR
        assert lo and hi

    def test_divergent_scalar(self):
        divergent_src = classify_source_read(
            RegisterEncoding(enc=4, base=PARTIAL_MASK, divergent=True),
            True,
            PARTIAL_MASK,
        )
        cls, _, _ = classify_instruction(
            OpCategory.ALU, True, _sources(divergent_src), False
        )
        assert cls is ScalarClass.DIVERGENT_SCALAR

    def test_divergent_nonscalar(self):
        cls, _, _ = classify_instruction(
            OpCategory.ALU, True, _sources(vector_source()), False
        )
        assert cls is ScalarClass.NOT_ELIGIBLE

    def test_full_scalar_buckets_property(self):
        assert ScalarClass.ALU_SCALAR.is_full_scalar
        assert ScalarClass.SFU_SCALAR.is_full_scalar
        assert ScalarClass.MEM_SCALAR.is_full_scalar
        assert not ScalarClass.HALF_SCALAR.is_full_scalar
        assert not ScalarClass.DIVERGENT_SCALAR.is_full_scalar
