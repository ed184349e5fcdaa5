"""Compile-time divergence analysis over the UNIFORM/AFFINE/DIVERGENT lattice.

This is the static half of the paper's §6 comparison: a forward taint
dataflow seeded by the per-lane specials (``%tid``/``%lane``), with the
affine middle rung tracking values of the form ``base + stride*lane``
(thread indices and everything linearly derived from them — the address
arithmetic that dominates GPU kernels).  Control dependence is folded
in through branch regions: every block governed by a branch whose
condition is not provably warp-uniform is *control-divergent*, and any
write performed there is a masked merge, so its destination drops to
DIVERGENT.

Each static instruction is then classified:

* ``PROVABLY_SCALAR`` — control-uniform and every operand warp-uniform:
  a compile-time scalarizer [Lee et al., CGO 2013] could commit this to
  a scalar pipe.  Sound by construction: such a site can never execute
  under a mask narrower than its warp's launch mask.
* ``POSSIBLY_SCALAR`` — not provable (affine operands with unknown
  stride, values merged under divergent control, reads of untracked
  state), but a *dynamic* detector like G-Scalar may still find the
  operands scalar at runtime.
* ``DIVERGENT`` — provably or presumptively per-lane varying (a direct
  ``%tid``/``%lane`` operand, or data tainted by one through
  non-affine ops or loads).

The gap between PROVABLY_SCALAR and what the dynamic tracker reports is
quantified per benchmark by :mod:`repro.experiments.staticdyn`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.instructions import Imm, Instruction, Reg, SpecialReg
from repro.isa.kernel import Branch, Kernel
from repro.isa.liveness import branch_region_members
from repro.isa.opcodes import OpCategory, Opcode, category_of, is_load

from repro.analysis.static_.diagnostics import Diagnostic
from repro.analysis.static_.framework import AnalysisContext, LintPass


class Uniformity(enum.Enum):
    """Per-register value lattice, ordered by information loss."""

    UNDEF = "undef"  # bottom: no definition reached yet
    UNIFORM = "uniform"  # provably one value across the warp
    AFFINE = "affine"  # provably base + stride*lane (stride unknown)
    DIVERGENT = "divergent"  # top: may differ arbitrarily per lane

    @property
    def rank(self) -> int:
        return _RANK[self]

    def join(self, other: "Uniformity") -> "Uniformity":
        return self if self.rank >= other.rank else other


_RANK = {
    Uniformity.UNDEF: 0,
    Uniformity.UNIFORM: 1,
    Uniformity.AFFINE: 2,
    Uniformity.DIVERGENT: 3,
}


class StaticScalarClass(enum.Enum):
    """Compile-time verdict for one static instruction."""

    PROVABLY_SCALAR = "provably_scalar"
    POSSIBLY_SCALAR = "possibly_scalar"
    DIVERGENT = "divergent"


#: Specials holding one value per warp.
_UNIFORM_SPECIALS = frozenset(
    {SpecialReg.CTAID, SpecialReg.WARP_IN_CTA, SpecialReg.NTID}
)
#: Specials affine in the lane index (stride exactly 1).
_AFFINE_SPECIALS = frozenset({SpecialReg.TID, SpecialReg.LANE})

#: Opcodes that preserve affinity: sum of affines is affine.
_AFFINE_ADD = frozenset({Opcode.IADD, Opcode.ISUB, Opcode.MOV, Opcode.DECOMPRESS_MOV})


@dataclass(frozen=True)
class UniformityResult:
    """Per-site verdicts plus the control-divergence block set."""

    kernel_name: str
    classes: dict[tuple[int, int], StaticScalarClass]
    control_divergent_blocks: frozenset[int]
    register_entry: dict[int, tuple[Uniformity, ...]]

    def class_of(self, block_id: int, inst_index: int) -> StaticScalarClass:
        return self.classes[(block_id, inst_index)]

    def counts(self) -> dict[StaticScalarClass, int]:
        counts = {c: 0 for c in StaticScalarClass}
        for verdict in self.classes.values():
            counts[verdict] += 1
        return counts


def _operand_kind(
    operand: Reg | Imm | SpecialReg, state: list[Uniformity]
) -> Uniformity:
    if isinstance(operand, Imm):
        return Uniformity.UNIFORM
    if isinstance(operand, SpecialReg):
        if operand in _UNIFORM_SPECIALS:
            return Uniformity.UNIFORM
        return Uniformity.AFFINE
    return state[operand.index]


def _transfer(inst: Instruction, state: list[Uniformity]) -> Uniformity:
    """Destination uniformity of one instruction (ignoring masking)."""
    kinds = [_operand_kind(s, state) for s in inst.srcs]
    if any(k is Uniformity.DIVERGENT for k in kinds):
        return Uniformity.DIVERGENT
    # UNDEF operands carry no guarantee; treat them as divergent inputs
    # for the produced value (the uninitialized-read pass reports them).
    if any(k is Uniformity.UNDEF for k in kinds):
        return Uniformity.DIVERGENT
    op = inst.opcode
    if op in _AFFINE_ADD:
        return max(kinds, key=lambda k: k.rank) if kinds else Uniformity.UNIFORM
    if op is Opcode.IMAD:
        product = _mul_kind(kinds[0], kinds[1])
        return product.join(kinds[2])
    if op is Opcode.IMUL:
        return _mul_kind(kinds[0], kinds[1])
    if op is Opcode.SHL:
        # value << uniform-amount scales an affine stride by a power of
        # two; an affine shift amount destroys the form.
        if kinds[1] is Uniformity.UNIFORM:
            return kinds[0]
        return _all_uniform_or_divergent(kinds)
    if op is Opcode.SELP:
        if kinds[2] is Uniformity.UNIFORM:
            # A warp-uniform predicate picks the same arm in every lane.
            return kinds[0].join(kinds[1])
        return Uniformity.DIVERGENT
    if is_load(op):
        # A warp-uniform address loads one location: a broadcast value.
        # Any varying address yields unknown per-lane data.
        if kinds[0] is Uniformity.UNIFORM:
            return Uniformity.UNIFORM
        return Uniformity.DIVERGENT
    # Everything else (comparisons, bitwise, float, SFU, division,
    # conversions) computes the same function of the same inputs per
    # lane when all inputs are uniform, and is otherwise assumed to
    # destroy any affine structure.
    return _all_uniform_or_divergent(kinds)


def _mul_kind(a: Uniformity, b: Uniformity) -> Uniformity:
    if a is Uniformity.UNIFORM and b is Uniformity.UNIFORM:
        return Uniformity.UNIFORM
    if {a, b} == {Uniformity.UNIFORM, Uniformity.AFFINE}:
        return Uniformity.AFFINE  # uniform factor scales the stride
    return Uniformity.DIVERGENT


def _all_uniform_or_divergent(kinds: list[Uniformity]) -> Uniformity:
    if all(k is Uniformity.UNIFORM for k in kinds):
        return Uniformity.UNIFORM
    return Uniformity.DIVERGENT


def _value_fixpoint(
    kernel: Kernel,
    preds: dict[int, list[int]],
    divergent_blocks: set[int],
) -> tuple[dict[int, list[Uniformity]], dict[int, list[Uniformity]]]:
    """Iterate the forward dataflow to a fixpoint.

    Returns (entry-state, out-state) per block.  Writes inside
    control-divergent blocks are masked merges and drop to DIVERGENT.
    """
    num_registers = kernel.num_registers
    bottom = [Uniformity.UNDEF] * num_registers
    out_state: dict[int, list[Uniformity]] = {
        b.block_id: list(bottom) for b in kernel.blocks
    }
    entry_state: dict[int, list[Uniformity]] = {
        b.block_id: list(bottom) for b in kernel.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in kernel.blocks:
            block_id = block.block_id
            merged = list(bottom)
            for pred in preds[block_id]:
                pred_out = out_state[pred]
                merged = [a.join(b) for a, b in zip(merged, pred_out)]
            entry_state[block_id] = merged
            state = list(merged)
            masked = block_id in divergent_blocks
            for inst in block.instructions:
                if inst.dst is None:
                    continue
                kind = Uniformity.DIVERGENT if masked else _transfer(inst, state)
                state[inst.dst.index] = kind
            if state != out_state[block_id]:
                out_state[block_id] = state
                changed = True
    return entry_state, out_state


def analyze_uniformity(kernel: Kernel) -> UniformityResult:
    """Run the full divergence analysis over one kernel."""
    preds = kernel.predecessors()
    regions = branch_region_members(kernel)

    # Control divergence and value uniformity are mutually dependent
    # (a branch condition's uniformity decides whether its region's
    # writes are masked), so alternate the two until the divergent-block
    # set stops growing.  Growth is monotone: more divergent blocks can
    # only raise value states, which can only add divergent regions.
    divergent_blocks: set[int] = set()
    while True:
        entry_state, out_state = _value_fixpoint(kernel, preds, divergent_blocks)
        grown = set(divergent_blocks)
        for region, members in regions:
            branch = kernel.blocks[region.branch_block].terminator
            assert isinstance(branch, Branch)
            cond_kind = out_state[region.branch_block][branch.cond.index]
            if cond_kind is not Uniformity.UNIFORM:
                grown |= members
        if grown == divergent_blocks:
            break
        divergent_blocks = grown

    classes: dict[tuple[int, int], StaticScalarClass] = {}
    for block in kernel.blocks:
        state = list(entry_state[block.block_id])
        masked = block.block_id in divergent_blocks
        for index, inst in enumerate(block.instructions):
            kinds = [_operand_kind(s, state) for s in inst.srcs]
            direct_varying = any(
                isinstance(s, SpecialReg) and s in _AFFINE_SPECIALS for s in inst.srcs
            )
            if category_of(inst.opcode) is OpCategory.CTRL:
                verdict = StaticScalarClass.DIVERGENT  # bar.sync: never scalar
            elif direct_varying or any(k is Uniformity.DIVERGENT for k in kinds):
                verdict = StaticScalarClass.DIVERGENT
            elif masked:
                # Even all-uniform operands cannot be committed at
                # compile time under a possibly-partial mask; dynamic
                # G-Scalar catches these as divergent-scalar (§4.2).
                verdict = StaticScalarClass.POSSIBLY_SCALAR
            elif all(k is Uniformity.UNIFORM for k in kinds):
                verdict = StaticScalarClass.PROVABLY_SCALAR
            else:
                verdict = StaticScalarClass.POSSIBLY_SCALAR
            classes[(block.block_id, index)] = verdict
            if inst.dst is not None:
                state[inst.dst.index] = (
                    Uniformity.DIVERGENT if masked else _transfer(inst, state)
                )

    return UniformityResult(
        kernel_name=kernel.name,
        classes=classes,
        control_divergent_blocks=frozenset(divergent_blocks),
        register_entry={
            block_id: tuple(state) for block_id, state in entry_state.items()
        },
    )


class StaticScalarizationPass(LintPass):
    """Summarizes the divergence analysis as a GS-I201 info diagnostic."""

    name = "static-scalarization"

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        result = ctx.uniformity
        counts = result.counts()
        total = sum(counts.values())
        provable = counts[StaticScalarClass.PROVABLY_SCALAR]
        possible = counts[StaticScalarClass.POSSIBLY_SCALAR]
        divergent = counts[StaticScalarClass.DIVERGENT]
        return [
            Diagnostic(
                rule="GS-I201",
                kernel=ctx.kernel.name,
                message=(
                    f"{total} static instructions: {provable} provably scalar, "
                    f"{possible} possibly scalar, {divergent} divergent; "
                    f"{len(result.control_divergent_blocks)} control-divergent "
                    "blocks"
                ),
            )
        ]
