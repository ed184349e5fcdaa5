"""Static value-width analysis: which registers are *provably* narrow.

G-Scalar compresses register values dynamically, by observing at
write-back how many most-significant bytes the lanes share.  This pass
is the compile-time counterpart (Angerd/Sintorn/Stenström,
arXiv:2006.05693): a forward abstract interpretation over the kernel
CFG that bounds every register's value at every program point, and from
those bounds derives *guaranteed* compressed widths — byte prefixes
that are provably redundant on **every** execution path, so a register
file may allocate the register narrow at compile time with no runtime
detection hardware at all.

The abstract domain per register is a :class:`WidthVal`:

* an **unsigned 32-bit interval** ``[lo, hi]`` bounding each lane's
  value (the executor computes modulo 2^32; transfers return top on any
  possible wraparound),
* an **affine stride**: ``stride == 0`` means the value is provably
  warp-uniform (every lane equal), ``stride == s != 0`` means lane ``l``
  holds ``base + s*l (mod 2^32)`` for an unknown uniform ``base``, and
  ``stride is None`` means no cross-lane structure is known.

Soundness mirrors :mod:`repro.analysis.static_.uniformity` exactly —
the two analyses share the control-divergence machinery: a write inside
a control-divergent block is a masked merge (after reconvergence the
register mixes new and old per lane), so its stored state joins with
the previous state and drops the stride.  Outside divergent regions
every active lane follows the same path, so block-entry joins may keep
an agreeing stride.  Intervals additionally survive merges because they
are per-lane bounds, not cross-lane relations.

Two kinds of *claims* fall out, both validated dynamically by
``repro staticdyn --widths`` (zero over-claims required):

* **per-site** — at each write site, the ``enc`` prefix-byte count the
  dynamic tracker is guaranteed to observe: 4 when the written value is
  provably uniform (``stride == 0``), else the number of provably-zero
  leading bytes of ``hi``;
* **per-register** — the minimum *zero-byte* claim over all reachable
  write sites: the width a statically-compressed register file can
  allocate for the register.  Only zero-byte claims feed storage width:
  a masked write merges with stale (or initial zero) lane values, which
  zero prefixes survive but uniformity does not.

Termination is by widening at block entries: a growing upper bound
rounds up to the next byte boundary (claims are byte-granular, so this
loses no claim precision), a shrinking lower bound drops to zero, and
an unstable stride drops to unknown — every component has a finite
chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Imm, Instruction, Reg, SpecialReg
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode, is_load

from repro.analysis.static_.diagnostics import Diagnostic
from repro.analysis.static_.framework import AnalysisContext, LintPass
from repro.analysis.static_.uniformity import UniformityResult, analyze_uniformity

#: Bump when the transfer functions or claim derivation change meaning;
#: the experiment runner keys static-compress result sidecars on it.
WIDTH_ANALYSIS_VERSION = 1

_M32 = 0xFFFFFFFF
_MOD = 1 << 32
#: Interval upper bounds produced by widening (byte boundaries).
_BYTE_BOUNDS = (0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF)
#: Values whose signed and unsigned 32-bit orderings agree.
_SIGNED_MAX = 0x7FFFFFFF


@dataclass(frozen=True)
class WidthVal:
    """Abstract value of one register: interval bounds plus affine stride.

    ``lo > hi`` encodes bottom (no value reaches this point — e.g. a
    register in an unreachable block).  ``stride`` is ``0`` for
    provably warp-uniform values, a nonzero ``s`` for provably affine
    ``base + s*lane (mod 2^32)`` values, and ``None`` when no
    cross-lane structure is known.
    """

    lo: int
    hi: int
    stride: int | None

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_singleton(self) -> bool:
        """Exactly one concrete value — in every lane."""
        return self.lo == self.hi and self.stride == 0

    @property
    def uniform(self) -> bool:
        return self.stride == 0

    def zero_bytes(self) -> int:
        """Provably-zero leading bytes of every value in the interval."""
        if self.is_bottom or self.hi == 0:
            return 4
        for index, bound in enumerate(_BYTE_BOUNDS):
            if self.hi <= bound:
                return 3 - index
        return 0

    def claimed_enc(self) -> int:
        """Guaranteed dynamic ``enc`` for a value written from this state.

        A provably-uniform value always compresses to the 4-byte scalar
        prefix; otherwise only the provably-zero leading bytes are
        guaranteed (they are equal — zero — in every lane).
        """
        if self.is_bottom or self.stride == 0:
            return 4
        return self.zero_bytes()


BOTTOM = WidthVal(1, 0, None)
ZERO = WidthVal(0, 0, 0)  # registers are zero-initialized
TOP = WidthVal(0, _M32, None)
#: Top interval but provably warp-uniform.
TOP_UNIFORM = WidthVal(0, _M32, 0)


def join(a: WidthVal, b: WidthVal) -> WidthVal:
    """Least upper bound for a control-flow merge.

    Outside control-divergent regions every active lane arrived via the
    same dynamic path, so an agreeing stride survives the join; the
    interval is the usual hull.  (Merges of *divergent* arms are
    already conservative: any write under divergent control stores a
    stride-free joined state, so its out-state cannot agree with the
    other arm's unless the register was untouched by both.)
    """
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    stride = a.stride if a.stride == b.stride else None
    return WidthVal(min(a.lo, b.lo), max(a.hi, b.hi), stride)


def join_masked(old: WidthVal, new: WidthVal) -> WidthVal:
    """Merge for a write under a possibly-partial mask.

    Inactive lanes keep their old data, so after reconvergence the
    register holds a per-lane mix of ``old`` and ``new``: the interval
    hull still bounds every lane, but no cross-lane structure survives.
    """
    if old.is_bottom:
        merged = new
    elif new.is_bottom:
        merged = old
    else:
        merged = WidthVal(min(old.lo, new.lo), max(old.hi, new.hi), None)
    return WidthVal(merged.lo, merged.hi, None)


def widen(old: WidthVal, new: WidthVal) -> WidthVal:
    """Widening at block entries: monotone by construction.

    The lower bound only ever drops (straight to 0), the upper bound
    only ever grows (rounded up to the next byte boundary, so claims —
    which are byte-granular — lose nothing), and the stride collapses
    to unknown on any instability.  Each component has a finite chain,
    so the fixpoint terminates regardless of transfer behavior.
    """
    if old.is_bottom:
        return new
    if new.is_bottom:
        return old
    lo = old.lo if new.lo >= old.lo else 0
    hi = old.hi if new.hi <= old.hi else _byte_ceil(new.hi)
    stride = old.stride if new.stride == old.stride else None
    return WidthVal(lo, hi, stride)


def _byte_ceil(value: int) -> int:
    for bound in _BYTE_BOUNDS:
        if value <= bound:
            return bound
    return _M32


# ----------------------------------------------------------------------
# Transfer functions.
# ----------------------------------------------------------------------
def _operand_width(
    operand: Reg | Imm | SpecialReg,
    state: list[WidthVal],
    warp_size: int,
) -> WidthVal:
    if isinstance(operand, Imm):
        return WidthVal(operand.value, operand.value, 0)
    if isinstance(operand, SpecialReg):
        if operand is SpecialReg.LANE:
            return WidthVal(0, warp_size - 1, 1)
        if operand is SpecialReg.TID:
            # Global thread id: ctaid*ntid + warp*warp_size + lane.
            return WidthVal(0, _M32, 1)
        # CTAID / WARP_IN_CTA / NTID broadcast one value per warp.
        return TOP_UNIFORM
    return state[operand.index]


def _uniform_stride(vals: list[WidthVal]) -> int | None:
    """Stride of any deterministic per-lane op on these operands.

    The executor computes every opcode lane-wise from its source
    arrays (memory state is shared), so all-uniform inputs always
    produce a uniform output, whatever the operation.
    """
    return 0 if all(v.stride == 0 for v in vals) else None


def _const(v: WidthVal) -> int | None:
    """The single value this operand takes in every lane, if known."""
    return v.lo if v.is_singleton else None


def _add(a: WidthVal, b: WidthVal) -> WidthVal:
    stride = (
        (a.stride + b.stride) % _MOD
        if a.stride is not None and b.stride is not None
        else None
    )
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if hi > _M32:  # possible wraparound: bounds are gone, affinity is not
        return WidthVal(0, _M32, stride)
    return WidthVal(lo, hi, stride)


def _sub(a: WidthVal, b: WidthVal) -> WidthVal:
    stride = (
        (a.stride - b.stride) % _MOD
        if a.stride is not None and b.stride is not None
        else None
    )
    if a.lo >= b.hi:  # no underflow possible
        return WidthVal(a.lo - b.hi, a.hi - b.lo, stride)
    return WidthVal(0, _M32, stride)


def _mul(a: WidthVal, b: WidthVal) -> WidthVal:
    stride: int | None = _uniform_stride([a, b])
    if stride is None:
        # An affine value scaled by a warp-uniform *constant* keeps an
        # affine form with a statically-known stride; scaling by an
        # unknown uniform yields an unknown stride.
        ka, kb = _const(a), _const(b)
        if a.stride is not None and kb is not None:
            stride = (a.stride * kb) % _MOD
        elif b.stride is not None and ka is not None:
            stride = (b.stride * ka) % _MOD
    if a.hi * b.hi > _M32:
        return WidthVal(0, _M32, stride)
    return WidthVal(a.lo * b.lo, a.hi * b.hi, stride)


def _shl(a: WidthVal, b: WidthVal) -> WidthVal:
    if b.hi > 31:  # the executor masks the amount: all structure is lost
        return WidthVal(0, _M32, _uniform_stride([a, b]))
    stride: int | None = _uniform_stride([a, b])
    kb = _const(b)
    if stride is None and a.stride is not None and kb is not None:
        # (base + s*lane) << k distributes modulo 2^32.
        stride = (a.stride << kb) % _MOD
    if (a.hi << b.hi) > _M32:
        return WidthVal(0, _M32, stride)
    return WidthVal(a.lo << b.lo, a.hi << b.hi, stride)


def _shr(a: WidthVal, b: WidthVal) -> WidthVal:
    stride = _uniform_stride([a, b])
    if b.hi > 31:
        return WidthVal(0, a.hi, stride)
    return WidthVal(a.lo >> b.hi, a.hi >> b.lo, stride)


def _compare_signed(a: WidthVal, b: WidthVal, op: Opcode) -> WidthVal:
    """SETLT/LE/GT/GE: signed compare producing 0/1 per lane."""
    stride = _uniform_stride([a, b])
    if a.hi <= _SIGNED_MAX and b.hi <= _SIGNED_MAX:
        # Signed and unsigned orderings agree: the outcome may be fixed.
        checks = {
            Opcode.SETLT: (a.hi < b.lo, a.lo >= b.hi),
            Opcode.SETLE: (a.hi <= b.lo, a.lo > b.hi),
            Opcode.SETGT: (a.lo > b.hi, a.hi <= b.lo),
            Opcode.SETGE: (a.lo >= b.hi, a.hi < b.lo),
        }
        always, never = checks[op]
        if always:
            return WidthVal(1, 1, 0)
        if never:
            return ZERO
    return WidthVal(0, 1, stride)


def _compare_bitwise(a: WidthVal, b: WidthVal, op: Opcode) -> WidthVal:
    """SETEQ/SETNE compare raw 32-bit patterns."""
    stride = _uniform_stride([a, b])
    if a.hi < b.lo or b.hi < a.lo:  # provably disjoint: never equal
        return ZERO if op is Opcode.SETEQ else WidthVal(1, 1, 0)
    if a.is_singleton and b.is_singleton and a.lo == b.lo:
        return WidthVal(1, 1, 0) if op is Opcode.SETEQ else ZERO
    return WidthVal(0, 1, stride)


def _selp(a: WidthVal, b: WidthVal, pred: WidthVal) -> WidthVal:
    hull = join(a, b)
    if pred.stride == 0:
        # A warp-uniform predicate picks the same arm in every lane, so
        # the result is wholly one arm: an agreeing stride survives.
        stride = a.stride if a.stride == b.stride else None
        return WidthVal(hull.lo, hull.hi, stride)
    return WidthVal(hull.lo, hull.hi, None)


def _min_max(a: WidthVal, b: WidthVal, op: Opcode) -> WidthVal:
    stride = _uniform_stride([a, b])
    if a.hi <= _SIGNED_MAX and b.hi <= _SIGNED_MAX:
        if op is Opcode.IMIN:
            return WidthVal(min(a.lo, b.lo), min(a.hi, b.hi), stride)
        return WidthVal(max(a.lo, b.lo), max(a.hi, b.hi), stride)
    # Signed selection still returns one of its operands per lane, so
    # the unsigned hull of both operands bounds the result.
    hull = join(a, b)
    return WidthVal(hull.lo, hull.hi, stride)


def _div(a: WidthVal, b: WidthVal) -> WidthVal:
    stride = _uniform_stride([a, b])
    if a.hi <= _SIGNED_MAX and b.hi <= _SIGNED_MAX and b.lo >= 1:
        return WidthVal(a.lo // b.hi, a.hi // b.lo, stride)
    return WidthVal(0, _M32, stride)  # covers divide-by-zero's all-ones


def _rem(a: WidthVal, b: WidthVal) -> WidthVal:
    stride = _uniform_stride([a, b])
    if a.hi <= _SIGNED_MAX and b.hi <= _SIGNED_MAX and b.lo >= 1:
        return WidthVal(0, min(a.hi, b.hi - 1), stride)
    return WidthVal(0, _M32, stride)


def transfer(
    inst: Instruction, state: list[WidthVal], warp_size: int
) -> WidthVal:
    """Abstract value written by one instruction (ignoring masking)."""
    vals = [_operand_width(s, state, warp_size) for s in inst.srcs]
    if any(v.is_bottom for v in vals):
        return BOTTOM  # unreachable operands: the site never executes
    op = inst.opcode
    if op is Opcode.MOV or op is Opcode.DECOMPRESS_MOV:
        return vals[0]
    if op is Opcode.IADD:
        return _add(vals[0], vals[1])
    if op is Opcode.ISUB:
        return _sub(vals[0], vals[1])
    if op is Opcode.IMUL:
        return _mul(vals[0], vals[1])
    if op is Opcode.IMAD:
        return _add(_mul(vals[0], vals[1]), vals[2])
    if op is Opcode.SHL:
        return _shl(vals[0], vals[1])
    if op is Opcode.SHR:
        return _shr(vals[0], vals[1])
    if op is Opcode.AND:
        return WidthVal(0, min(vals[0].hi, vals[1].hi), _uniform_stride(vals))
    if op in (Opcode.OR, Opcode.XOR):
        bits = max(vals[0].hi.bit_length(), vals[1].hi.bit_length())
        return WidthVal(0, (1 << bits) - 1, _uniform_stride(vals))
    if op is Opcode.NOT:
        stride = (
            (-vals[0].stride) % _MOD if vals[0].stride is not None else None
        )
        return WidthVal(_M32 - vals[0].hi, _M32 - vals[0].lo, stride)
    if op in (Opcode.SETEQ, Opcode.SETNE):
        return _compare_bitwise(vals[0], vals[1], op)
    if op in (Opcode.SETLT, Opcode.SETLE, Opcode.SETGT, Opcode.SETGE):
        return _compare_signed(vals[0], vals[1], op)
    if op is Opcode.SELP:
        return _selp(vals[0], vals[1], vals[2])
    if op in (Opcode.IMIN, Opcode.IMAX):
        return _min_max(vals[0], vals[1], op)
    if op is Opcode.IDIV:
        return _div(vals[0], vals[1])
    if op is Opcode.IREM:
        return _rem(vals[0], vals[1])
    if op is Opcode.FABS:
        # Bitwise clear of the sign bit: an AND with 0x7FFFFFFF.
        return WidthVal(0, min(vals[0].hi, _SIGNED_MAX), _uniform_stride(vals))
    if is_load(op):
        # Unknown data; a warp-uniform address is a broadcast load.
        return WidthVal(0, _M32, 0 if vals[0].stride == 0 else None)
    # Float arithmetic, SFU, conversions, FNEG bit flips: unbounded
    # patterns, but still deterministic per lane.
    return WidthVal(0, _M32, _uniform_stride(vals))


# ----------------------------------------------------------------------
# Fixpoint and claim derivation.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WidthResult:
    """Machine-readable output of the width analysis for one kernel.

    ``site_claims`` maps each write site ``(block_id, inst_index)`` to
    the guaranteed dynamic ``enc`` (including uniformity claims);
    ``site_zero_bytes`` keeps only the zero-prefix part (what survives
    masked merges); ``register_enc[r]`` is the storage prefix the
    statically-compressed register file allocates for register ``r``
    (the minimum zero-byte claim over its reachable write sites; 4 — a
    zero-width, known-zero register — when it is never written).
    ``uniformity`` is the divergence analysis the widths were computed
    under, kept so its other readers need not run it again.
    """

    kernel_name: str
    warp_size: int
    site_claims: dict[tuple[int, int], int]
    site_zero_bytes: dict[tuple[int, int], int]
    register_enc: tuple[int, ...]
    uniformity: UniformityResult

    def claim_at(self, block_id: int, inst_index: int) -> int | None:
        return self.site_claims.get((block_id, inst_index))

    @property
    def narrow_registers(self) -> tuple[int, ...]:
        """Registers the static RF stores with a nonzero prefix."""
        return tuple(
            index for index, enc in enumerate(self.register_enc) if enc > 0
        )

    def counts(self) -> dict[str, int]:
        claims = self.site_claims.values()
        return {
            "write_sites": len(self.site_claims),
            "claiming_sites": sum(1 for c in claims if c >= 1),
            "uniform_sites": sum(1 for c in claims if c == 4),
            "narrow_registers": len(self.narrow_registers),
            "registers": len(self.register_enc),
        }


def analyze_widths(
    kernel: Kernel, warp_size: int = 32, uniformity: UniformityResult | None = None
) -> WidthResult:
    """Run the width abstract interpretation over one kernel.

    ``uniformity`` is the kernel's :func:`analyze_uniformity` result
    when the caller already holds it; otherwise it is computed here.
    """
    preds = kernel.predecessors()
    if uniformity is None:
        uniformity = analyze_uniformity(kernel)
    divergent_blocks = uniformity.control_divergent_blocks
    num_registers = kernel.num_registers
    entry_block = kernel.blocks[0].block_id
    bottom = [BOTTOM] * num_registers
    zero_entry = [ZERO] * num_registers

    entry_state: dict[int, list[WidthVal]] = {
        b.block_id: list(bottom) for b in kernel.blocks
    }
    out_state: dict[int, list[WidthVal]] = {
        b.block_id: list(bottom) for b in kernel.blocks
    }

    def block_out(block, state: list[WidthVal]) -> list[WidthVal]:
        masked = block.block_id in divergent_blocks
        for inst in block.instructions:
            if inst.dst is None:
                continue
            value = transfer(inst, state, warp_size)
            index = inst.dst.index
            state[index] = (
                join_masked(state[index], value) if masked else value
            )
        return state

    changed = True
    while changed:
        changed = False
        for block in kernel.blocks:
            block_id = block.block_id
            merged = list(zero_entry) if block_id == entry_block else list(bottom)
            for pred in preds[block_id]:
                pred_out = out_state[pred]
                merged = [join(a, b) for a, b in zip(merged, pred_out)]
            # Widen against the previous entry state so the interval
            # bounds move monotonically through a finite chain.
            widened = [
                widen(old, new)
                for old, new in zip(entry_state[block_id], merged)
            ]
            if widened != entry_state[block_id]:
                entry_state[block_id] = widened
                changed = True
            state = block_out(block, list(widened))
            if state != out_state[block_id]:
                out_state[block_id] = state
                changed = True

    site_claims: dict[tuple[int, int], int] = {}
    site_zero_bytes: dict[tuple[int, int], int] = {}
    register_min: dict[int, int] = {}
    for block in kernel.blocks:
        state = list(entry_state[block.block_id])
        masked = block.block_id in divergent_blocks
        reachable = not all(v.is_bottom for v in state)
        for index, inst in enumerate(block.instructions):
            if inst.dst is None:
                continue
            value = transfer(inst, state, warp_size)
            site = (block.block_id, index)
            site_claims[site] = value.claimed_enc()
            site_zero_bytes[site] = (
                4 if value.is_bottom else value.zero_bytes()
            )
            if reachable:
                register = inst.dst.index
                register_min[register] = min(
                    register_min.get(register, 4), site_zero_bytes[site]
                )
            state[inst.dst.index] = (
                join_masked(state[inst.dst.index], value) if masked else value
            )

    register_enc = tuple(
        register_min.get(register, 4) for register in range(num_registers)
    )
    return WidthResult(
        kernel_name=kernel.name,
        warp_size=warp_size,
        site_claims=site_claims,
        site_zero_bytes=site_zero_bytes,
        register_enc=register_enc,
        uniformity=uniformity,
    )


class WidthAnalysisPass(LintPass):
    """Reports compressibility: GS-I204 summary plus GS-W104 per register.

    GS-W104 fires for every register the analysis proves narrower than
    the full 4-byte vector register it occupies — each one is a
    candidate for compile-time narrow allocation (the ``static_compress``
    architecture stores exactly these registers compressed).
    """

    name = "width-analysis"

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        result = analyze_widths(ctx.kernel, uniformity=ctx.uniformity)
        counts = result.counts()
        found = [
            Diagnostic(
                rule="GS-I204",
                kernel=ctx.kernel.name,
                message=(
                    f"width analysis: {counts['narrow_registers']}/"
                    f"{counts['registers']} registers provably narrow, "
                    f"{counts['claiming_sites']}/{counts['write_sites']} "
                    f"write sites guarantee enc>=1, "
                    f"{counts['uniform_sites']} sites provably uniform"
                ),
            )
        ]
        for register in result.narrow_registers:
            enc = result.register_enc[register]
            found.append(
                Diagnostic(
                    rule="GS-W104",
                    kernel=ctx.kernel.name,
                    message=(
                        f"r{register} provably fits {4 - enc} byte(s) "
                        f"({enc} guaranteed-zero prefix bytes) but "
                        "occupies a full 4-byte vector register"
                    ),
                )
            )
        return found
