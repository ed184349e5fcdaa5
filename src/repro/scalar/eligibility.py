"""Scalar-eligibility classification of dynamic instructions.

Each dynamic instruction falls into exactly one :class:`ScalarClass`
bucket, matching the stacked categories of Figure 9:

* ``ALU_SCALAR`` — non-divergent, all sources scalar, ALU pipeline
  (what prior architectures [3, 5, 6] support),
* ``SFU_SCALAR`` / ``MEM_SCALAR`` — ditto on the special-function or
  memory pipeline (the paper's "all scalar" additions),
* ``HALF_SCALAR`` — non-divergent, not fully scalar, but at least one
  16-lane half has all-scalar sources (§4.3),
* ``DIVERGENT_SCALAR`` — divergent, and every source is scalar *with
  respect to the instruction's active mask* (§4.2), and
* ``NOT_ELIGIBLE`` — everything else (including all control flow).
"""

from __future__ import annotations

import enum


class ScalarClass(enum.Enum):
    """Figure 9 bucket of one dynamic instruction."""

    NOT_ELIGIBLE = "not_eligible"
    ALU_SCALAR = "alu_scalar"
    SFU_SCALAR = "sfu_scalar"
    MEM_SCALAR = "mem_scalar"
    HALF_SCALAR = "half_scalar"
    DIVERGENT_SCALAR = "divergent_scalar"

    @property
    def is_full_scalar(self) -> bool:
        """True for the non-divergent full-warp scalar buckets."""
        return self in (
            ScalarClass.ALU_SCALAR,
            ScalarClass.SFU_SCALAR,
            ScalarClass.MEM_SCALAR,
        )


#: Stable integer coding of :class:`ScalarClass` used by the columnar
#: pipeline (:mod:`repro.scalar.columns`).  Keyed by the value string so
#: enum-member reordering can never silently re-map stored ids.
SCALAR_CLASS_TO_ID = {
    cls: index
    for index, cls in enumerate(sorted(ScalarClass, key=lambda c: c.value))
}
ID_TO_SCALAR_CLASS = {index: cls for cls, index in SCALAR_CLASS_TO_ID.items()}
