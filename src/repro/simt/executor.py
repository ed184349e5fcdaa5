"""The functional SIMT executor: a lockstep engine over all warps.

Each warp keeps the classic immediate-post-dominator reconvergence
stack (the scheme GPGPU-Sim and Fermi-class hardware use), and the
engine records a full dynamic trace with operand values for the
downstream compression, scalar and power models.  Warps that sit at the
same program point run together: each step takes the runnable warps
whose top-of-stack entry is at the lowest (block, instruction index)
and runs that block body once on ``(k, warp_size)`` slices of one
``(num_registers, n_warps, warp_size)`` register array, appending one
record per instruction to a :class:`~repro.simt.trace.StepRows` buffer.
:func:`run_kernel` packs the buffer once into a warp-major
:class:`~repro.simt.trace.ColumnarTrace`.

Warps of a CTA synchronize at ``bar.sync``: a CTA's warps are released
past a barrier together, once none of them can run.  Lockstep order is
not the reference order, in which each warp runs to its barrier before
the next starts and CTAs run one after another.  The two orders give
the same trace unless warps communicate through memory, so the engine
logs every access and looks for a word that two warps touch with at
least one store (for shared memory, within one CTA barrier interval).
When it finds one, or when the lockstep run raises, it restores the
global memory image and replays the kernel in the reference order with
one-warp groups — the same engine, so there is one production executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError, ReproError
from repro.isa.instructions import Imm, Instruction, Reg, SpecialReg
from repro.isa.kernel import EXIT_NODE, Branch, Exit, Jump, Kernel, immediate_postdominators
from repro.isa.opcodes import Opcode
from repro.obs.instrument import record_columnar_warps
from repro.obs.telemetry import get_telemetry
from repro.simt.grid import LaunchConfig, enumerate_warps, mask_to_int
from repro.simt.memory_state import MemoryImage
from repro.simt.special import UNARY_SFU, sfu_fdiv
from repro.simt.trace import OPCODE_TO_ID, ColumnarTrace, StepRows, opcode_labels

#: Specials whose value differs between lanes of a warp.
_VARYING_SPECIALS = frozenset({SpecialReg.TID, SpecialReg.LANE})

_BRA_ID = OPCODE_TO_ID[Opcode.BRA]
_BAR_ID = OPCODE_TO_ID[Opcode.BAR]

#: Shared-memory word addresses are prefixed with the CTA id (and
#: hazard keys with the barrier interval) above the 2^30 byte-address
#: words, so every CTA gets a private space in one image.
_SPACE_SHIFT = 30
_WORD_MASK = (1 << _SPACE_SHIFT) - 1

_NOT_RUNNABLE = np.iinfo(np.int64).max


@dataclass
class _StackEntry:
    """One SIMT reconvergence-stack entry: run ``pc`` under ``mask``
    until reaching ``rpc``.  ``bits`` is ``mask`` packed to an int once,
    when the entry is created; every row the entry runs records it.
    ``inst_index`` is the resume point within the block (used when
    execution pauses at a CTA barrier)."""

    pc: int
    rpc: int
    mask: np.ndarray
    inst_index: int = 0
    bits: int = field(init=False)

    def __post_init__(self) -> None:
        self.bits = mask_to_int(self.mask)


# ----------------------------------------------------------------------
# Opcode semantics.  Every function maps uint32 operand arrays of one
# shape to a fresh uint32 array of that shape; masking happens at
# write-back.  Callers run them under ``np.errstate(all="ignore")``.
# ----------------------------------------------------------------------
def _u32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.uint32)


def _f32(bits: np.ndarray) -> np.ndarray:
    return _u32(bits).view(np.float32)


def _from_f32(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)


def _i32(bits: np.ndarray) -> np.ndarray:
    return _u32(bits).view(np.int32)


def _flag(values: np.ndarray) -> np.ndarray:
    return values.astype(np.uint32)


def _signed_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dividend = _i32(a).astype(np.int64)
    divisor = _i32(b).astype(np.int64)
    safe = np.where(divisor == 0, 1, divisor)
    quotient = np.trunc(dividend / safe).astype(np.int64)
    # CUDA defines signed division by zero as returning -1 (all ones).
    quotient = np.where(divisor == 0, -1, quotient)
    return quotient.astype(np.int32).view(np.uint32)


def _signed_rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dividend = _i32(a).astype(np.int64)
    divisor = _i32(b).astype(np.int64)
    safe = np.where(divisor == 0, 1, divisor)
    quotient = np.trunc(dividend / safe).astype(np.int64)
    remainder = dividend - quotient * safe
    remainder = np.where(divisor == 0, dividend, remainder)
    return remainder.astype(np.int32).view(np.uint32)


def _f2i(bits: np.ndarray) -> np.ndarray:
    floats = _f32(bits).astype(np.float64)
    floats = np.nan_to_num(floats, nan=0.0, posinf=2**31 - 1, neginf=-(2**31))
    clipped = np.clip(np.trunc(floats), -(2**31), 2**31 - 1)
    return clipped.astype(np.int64).astype(np.int32).view(np.uint32)


def _ffma(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    product = _f32(a).astype(np.float32) * _f32(b)
    return _from_f32(product + _f32(c))


SEMANTICS = {
    Opcode.MOV: lambda v: v[0].copy(),
    Opcode.DECOMPRESS_MOV: lambda v: v[0].copy(),
    Opcode.IADD: lambda v: v[0] + v[1],
    Opcode.ISUB: lambda v: v[0] - v[1],
    Opcode.IMUL: lambda v: v[0] * v[1],
    Opcode.IMAD: lambda v: v[0] * v[1] + v[2],
    Opcode.IDIV: lambda v: _signed_div(v[0], v[1]),
    Opcode.IREM: lambda v: _signed_rem(v[0], v[1]),
    Opcode.IMIN: lambda v: np.minimum(_i32(v[0]), _i32(v[1])).view(np.uint32),
    Opcode.IMAX: lambda v: np.maximum(_i32(v[0]), _i32(v[1])).view(np.uint32),
    Opcode.AND: lambda v: v[0] & v[1],
    Opcode.OR: lambda v: v[0] | v[1],
    Opcode.XOR: lambda v: v[0] ^ v[1],
    Opcode.NOT: lambda v: ~v[0],
    Opcode.SHL: lambda v: v[0] << (v[1] & 31),
    Opcode.SHR: lambda v: v[0] >> (v[1] & 31),
    Opcode.SETEQ: lambda v: _flag(v[0] == v[1]),
    Opcode.SETNE: lambda v: _flag(v[0] != v[1]),
    Opcode.SETLT: lambda v: _flag(_i32(v[0]) < _i32(v[1])),
    Opcode.SETLE: lambda v: _flag(_i32(v[0]) <= _i32(v[1])),
    Opcode.SETGT: lambda v: _flag(_i32(v[0]) > _i32(v[1])),
    Opcode.SETGE: lambda v: _flag(_i32(v[0]) >= _i32(v[1])),
    Opcode.SELP: lambda v: np.where(v[2] != 0, v[0], v[1]),
    Opcode.FADD: lambda v: _from_f32(_f32(v[0]) + _f32(v[1])),
    Opcode.FSUB: lambda v: _from_f32(_f32(v[0]) - _f32(v[1])),
    Opcode.FMUL: lambda v: _from_f32(_f32(v[0]) * _f32(v[1])),
    Opcode.FFMA: lambda v: _ffma(v[0], v[1], v[2]),
    Opcode.FMIN: lambda v: _from_f32(np.fmin(_f32(v[0]), _f32(v[1]))),
    Opcode.FMAX: lambda v: _from_f32(np.fmax(_f32(v[0]), _f32(v[1]))),
    Opcode.FSETLT: lambda v: _flag(_f32(v[0]) < _f32(v[1])),
    Opcode.FSETGT: lambda v: _flag(_f32(v[0]) > _f32(v[1])),
    Opcode.FSETLE: lambda v: _flag(_f32(v[0]) <= _f32(v[1])),
    Opcode.FSETGE: lambda v: _flag(_f32(v[0]) >= _f32(v[1])),
    Opcode.FABS: lambda v: v[0] & np.uint32(0x7FFFFFFF),
    Opcode.FNEG: lambda v: v[0] ^ np.uint32(0x80000000),
    Opcode.I2F: lambda v: _from_f32(_i32(v[0]).astype(np.float32)),
    Opcode.F2I: lambda v: _f2i(v[0]),
    Opcode.FDIV: lambda v: sfu_fdiv(v[0], v[1]),
    **{op: (lambda v, fn=fn: fn(v[0])) for op, fn in UNARY_SFU.items()},
}


def compute(opcode: Opcode, values: list[np.ndarray]) -> np.ndarray:
    """Apply ``opcode``'s semantics to its operand arrays."""
    semantics = SEMANTICS.get(opcode)
    if semantics is None:
        raise ExecutionError(f"no functional semantics for opcode {opcode.value}")
    return semantics(values)


# ----------------------------------------------------------------------
# Decoded program.
# ----------------------------------------------------------------------
_COMPUTE, _LOAD, _STORE, _BARRIER = range(4)
_KINDS = {
    Opcode.LD_GLOBAL: _LOAD,
    Opcode.LD_SHARED: _LOAD,
    Opcode.ST_GLOBAL: _STORE,
    Opcode.ST_SHARED: _STORE,
    Opcode.BAR: _BARRIER,
}


class _Op:
    """One static instruction with its trace fields precomputed."""

    __slots__ = (
        "opcode",
        "opcode_id",
        "kind",
        "shared",
        "dst",
        "srcs",
        "src_regs",
        "varying",
        "scalar_nonreg",
    )

    def __init__(self, inst: Instruction):
        self.opcode = inst.opcode
        self.opcode_id = OPCODE_TO_ID[inst.opcode]
        self.kind = _KINDS.get(inst.opcode, _COMPUTE)
        self.shared = inst.opcode in (Opcode.LD_SHARED, Opcode.ST_SHARED)
        self.dst = -1 if inst.dst is None else inst.dst.index
        self.srcs = inst.srcs
        self.src_regs = tuple(r.index for r in inst.source_registers)
        self.varying = any(
            isinstance(s, SpecialReg) and s in _VARYING_SPECIALS for s in inst.srcs
        )
        self.scalar_nonreg = sum(
            1
            for s in inst.srcs
            if isinstance(s, Imm)
            or (isinstance(s, SpecialReg) and s not in _VARYING_SPECIALS)
        )


class _Engine:
    """Run state of one launch: every warp's registers and stack, the
    CTAs' shared memory, the step buffer and (lockstep) the access log."""

    def __init__(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        memory: MemoryImage,
        warp_size: int,
        max_instructions: int,
    ):
        self.kernel = kernel
        self.ipdom = immediate_postdominators(kernel)
        self.program = [[_Op(inst) for inst in block.instructions] for block in kernel.blocks]
        self.stride = 1 + max(len(body) for body in self.program)
        self.memory = memory
        self.shared = MemoryImage()
        self.warp_size = warp_size
        self.max_instructions = max_instructions
        warps = enumerate_warps(launch, warp_size)
        count = len(warps)
        self.warp_ids = [w.warp_id for w in warps]
        #: ``(cta id, warp positions)`` in launch order.
        self.ctas: dict[int, list[int]] = {}
        for position, w in enumerate(warps):
            self.ctas.setdefault(w.cta_id, []).append(position)
        self.registers = np.zeros((kernel.num_registers, count, warp_size), dtype=np.uint32)
        self.tid = np.stack([w.global_thread_ids() for w in warps])
        self.lane = np.arange(warp_size, dtype=np.uint32)
        self.ctaid = np.array([w.cta_id for w in warps], dtype=np.uint32)[:, None]
        self.warp_in_cta = np.array([w.warp_in_cta for w in warps], dtype=np.uint32)[:, None]
        self.ntid = np.uint32(launch.cta_dim)
        self.initial = np.stack([w.initial_mask() for w in warps])
        self.shared_space = self.ctaid.astype(np.int64) << _SPACE_SHIFT
        self.stacks = [
            [_StackEntry(pc=0, rpc=EXIT_NODE, mask=self.initial[w])]
            if self.initial[w].any()
            else []
            for w in range(count)
        ]
        self.executed = np.zeros(count, dtype=np.int64)
        #: Deepest reconvergence-stack nesting reached per warp (telemetry).
        self.max_stack_depth = [1] * count
        self.rows = StepRows(self.warp_ids)
        self.telemetry = get_telemetry()
        # Lockstep access log: (hazard keys, warp positions, is_store)
        # per access.  Global keys are word addresses; shared keys carry
        # the CTA's barrier interval in the high bits.
        self.log: list[tuple[np.ndarray, np.ndarray, bool]] | None = None
        # Per warp, its CTA's current barrier-interval id (unique over the
        # launch, never 0 so shared keys stay apart from global ones).
        self.interval_space = (self.ctaid.astype(np.int64) + 1) << _SPACE_SHIFT
        self.next_interval = launch.grid_dim + 1

    # ------------------------------------------------------------------
    # Schedulers.
    # ------------------------------------------------------------------
    def run_lockstep(self) -> None:
        """Run the launch, lowest (block, instruction index) group first."""
        self.log = []
        count = len(self.stacks)
        key = np.full(count, _NOT_RUNNABLE, dtype=np.int64)
        waiting = [False] * count
        for w in range(count):
            key[w] = self._settle(w)
        while True:
            low = key.min()
            if low == _NOT_RUNNABLE:
                if not self._release(key, waiting):
                    return
                continue
            group = np.flatnonzero(key == low)
            paused = self._run_group(group)
            for w in group.tolist():
                if paused:
                    waiting[w] = True
                    key[w] = _NOT_RUNNABLE
                else:
                    key[w] = self._settle(w)

    def _release(self, key: np.ndarray, waiting: list[bool]) -> bool:
        """Release every CTA whose warps all wait at a barrier."""
        released = False
        for cta, members in self.ctas.items():
            at_barrier = [w for w in members if waiting[w]]
            if not at_barrier:
                continue
            finished = [w for w in members if not waiting[w]]
            if finished:
                raise self._barrier_divergence(cta, finished, at_barrier)
            for w in at_barrier:
                waiting[w] = False
                key[w] = self._settle(w)
            self.interval_space[at_barrier] = self.next_interval << _SPACE_SHIFT
            self.next_interval += 1
            released = True
        return released

    def run_sequential(self) -> None:
        """Run the launch in reference order, one warp per group: CTA by
        CTA, each warp to its next barrier (or exit) before the next."""
        for cta, pending in self.ctas.items():
            while pending:
                statuses = [self._run_warp(w) for w in pending]
                at_barrier = [w for w, paused in zip(pending, statuses) if paused]
                finished = [w for w, paused in zip(pending, statuses) if not paused]
                if at_barrier and finished:
                    raise self._barrier_divergence(cta, finished, at_barrier)
                pending = at_barrier

    def _run_warp(self, w: int) -> bool:
        """Run one warp to its next barrier (True) or to its exit."""
        group = np.array([w])
        while self._settle(w) != _NOT_RUNNABLE:
            if self._run_group(group):
                return True
        return False

    def _barrier_divergence(
        self, cta: int, finished: list[int], at_barrier: list[int]
    ) -> ExecutionError:
        return ExecutionError(
            f"kernel {self.kernel.name!r}, CTA {cta}: warps "
            f"{[self.warp_ids[w] for w in finished]} exited while "
            f"{[self.warp_ids[w] for w in at_barrier]} wait at a "
            "barrier (barrier divergence across warps)"
        )

    def _settle(self, w: int) -> int:
        """Pop finished stack entries; the warp's schedule key."""
        stack = self.stacks[w]
        while stack:
            top = stack[-1]
            if top.pc == top.rpc or top.pc == EXIT_NODE:
                stack.pop()
                continue
            return top.pc * self.stride + top.inst_index
        return _NOT_RUNNABLE

    # ------------------------------------------------------------------
    # One group run: a block body (to its end or a barrier) for warps
    # sitting at the same block and instruction index.
    # ------------------------------------------------------------------
    def _run_group(self, group: np.ndarray) -> bool:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_body(group)
        ids = [self.warp_ids[w] for w in group.tolist()]
        with telemetry.span(f"warp{ids[0]}", cat="warp", tid=ids[0] + 1, warps=ids):
            return self._run_body(group)

    def _run_body(self, group: np.ndarray) -> bool:
        """Returns True when the group paused at a barrier."""
        members = group.tolist()
        entries = [self.stacks[w][-1] for w in members]
        head = entries[0]
        k = len(members)
        first = members[0]
        # A contiguous group indexes the register array with a view.
        sel = slice(first, first + k) if members[-1] - first == k - 1 else group
        masks = head.mask[None, :] if k == 1 else np.stack([e.mask for e in entries])
        bits = np.array([e.bits for e in entries], dtype=np.uint64)
        full = bool(masks.all())
        block = self.kernel.blocks[head.pc]
        body = self.program[head.pc]
        budget = self.max_instructions - int(self.executed[sel].max())
        recorded = 0
        position = head.inst_index
        paused = False
        while position < len(body):
            op = body[position]
            position += 1
            if op.kind == _BARRIER:
                divergent = np.flatnonzero((masks != self.initial[sel]).any(axis=1))
                if divergent.size:
                    raise ExecutionError(
                        f"warp {self.warp_ids[members[divergent[0]]]}: bar.sync under a "
                        "divergent mask is undefined behaviour "
                        f"(kernel {self.kernel.name!r}, block {block.block_id})"
                    )
                self.rows.append(_BAR_ID, -1, (), group, bits, block.block_id)
                paused = True
            else:
                self._execute(op, sel, group, masks, bits, full, block.block_id)
            recorded += 1
            if recorded > budget:
                raise self._runaway(sel, members)
            if paused:
                break
        if not paused:
            recorded += self._terminate(block, entries, sel, group, masks, bits)
            if recorded > budget:
                raise self._runaway(sel, members)
        self.executed[sel] += recorded
        for entry in entries:
            entry.inst_index = position if paused else 0
        return paused

    def _runaway(self, sel, members: list[int]) -> ExecutionError:
        busiest = members[int(np.argmax(self.executed[sel]))]
        return ExecutionError(
            f"warp {self.warp_ids[busiest]} exceeded "
            f"{self.max_instructions} dynamic instructions "
            f"(kernel {self.kernel.name!r}: runaway loop?)"
        )

    def _terminate(self, block, entries, sel, group, masks, bits) -> int:
        """Apply the block terminator to every entry; rows recorded."""
        terminator = block.terminator
        if isinstance(terminator, Jump):
            for entry in entries:
                entry.pc = terminator.target
            return 0
        if isinstance(terminator, Exit):
            for entry in entries:
                entry.pc = EXIT_NODE
            return 0
        if not isinstance(terminator, Branch):
            raise ExecutionError(f"unknown terminator {terminator!r}")
        cond = self.registers[terminator.cond.index, sel]
        taken = masks & (cond != 0)
        not_taken = masks & ~taken
        self.rows.append(
            _BRA_ID, -1, (terminator.cond.index,), group, bits, block.block_id
        )
        any_taken = taken.any(axis=1).tolist()
        any_not_taken = not_taken.any(axis=1).tolist()
        for i, entry in enumerate(entries):
            if not any_not_taken[i]:
                entry.pc = terminator.taken
            elif not any_taken[i]:
                entry.pc = terminator.not_taken
            else:
                reconvergence = self.ipdom[block.block_id]
                entry.pc = reconvergence
                w = int(group[i])
                stack = self.stacks[w]
                stack.append(
                    _StackEntry(
                        pc=terminator.not_taken, rpc=reconvergence, mask=not_taken[i]
                    )
                )
                stack.append(
                    _StackEntry(pc=terminator.taken, rpc=reconvergence, mask=taken[i])
                )
                if len(stack) > self.max_stack_depth[w]:
                    self.max_stack_depth[w] = len(stack)
        return 1

    # ------------------------------------------------------------------
    # One instruction for a group.
    # ------------------------------------------------------------------
    def _operand(self, operand, sel, k: int) -> np.ndarray:
        if isinstance(operand, Reg):
            return self.registers[operand.index, sel]
        shape = (k, self.warp_size)
        if isinstance(operand, Imm):
            return np.full(shape, operand.value, dtype=np.uint32)
        if operand is SpecialReg.TID:
            return self.tid[sel]
        if operand is SpecialReg.LANE:
            return np.broadcast_to(self.lane, shape)
        if operand is SpecialReg.CTAID:
            return np.broadcast_to(self.ctaid[sel], shape)
        if operand is SpecialReg.WARP_IN_CTA:
            return np.broadcast_to(self.warp_in_cta[sel], shape)
        if operand is SpecialReg.NTID:
            return np.full(shape, self.ntid, dtype=np.uint32)
        raise ExecutionError(f"unknown operand {operand!r}")

    def _execute(self, op: _Op, sel, group, masks, bits, full: bool, block_id: int) -> None:
        k = masks.shape[0]
        values = [self._operand(s, sel, k) for s in op.srcs]
        addresses = None
        if op.kind == _COMPUTE:
            computed = compute(op.opcode, values)
        else:
            addresses = values[0].copy()
            words = (addresses >> 2).astype(np.int64)
            if op.shared:
                memory = self.shared
                words |= self.shared_space[sel]
            else:
                memory = self.memory
            active = words.reshape(-1) if full else words[masks]
            if self.log is not None:
                keys = active
                if op.shared:
                    keyed = (words & _WORD_MASK) | self.interval_space[sel]
                    keys = keyed.reshape(-1) if full else keyed[masks]
                warps = (
                    np.repeat(group, self.warp_size)
                    if full
                    else np.broadcast_to(group[:, None], masks.shape)[masks]
                )
                self.log.append((keys, warps, op.kind == _STORE))
            if op.kind == _LOAD:
                if full:
                    computed = memory.gather(active).reshape(k, self.warp_size)
                else:
                    computed = np.zeros((k, self.warp_size), dtype=np.uint32)
                    computed[masks] = memory.gather(active)
            else:
                data = values[1]
                memory.scatter(active, data.reshape(-1) if full else data[masks])
                computed = None
        snapshot = None
        if computed is not None and op.dst >= 0:
            snapshot = self._write(op.dst, sel, computed, masks, full)
        self.rows.append(
            op.opcode_id,
            op.dst,
            op.src_regs,
            group,
            bits,
            block_id,
            snapshot,
            addresses,
            op.varying,
            op.scalar_nonreg,
        )

    def _write(self, dst: int, sel, computed: np.ndarray, masks, full: bool) -> np.ndarray:
        """Masked write-back; returns the destination's new contents."""
        if full:
            self.registers[dst, sel] = computed
            return computed
        register = self.registers[dst, sel]
        np.copyto(register, computed, where=masks)
        if isinstance(sel, slice):
            return register.copy()
        # A fancy-indexed group read a copy: write it back.
        self.registers[dst, sel] = register
        return register

    # ------------------------------------------------------------------
    # Cross-warp hazards.
    # ------------------------------------------------------------------
    def order_sensitive(self) -> bool:
        """Could the reference order have produced a different trace?

        True when two warps touch one word and one of them stores to it
        (a shared word: within one CTA barrier interval).
        """
        if not self.log:
            return False
        keys = np.concatenate([entry[0] for entry in self.log])
        warps = np.concatenate([entry[1] for entry in self.log])
        stores = np.repeat(
            np.array([entry[2] for entry in self.log]),
            [entry[0].size for entry in self.log],
        )
        stored = np.unique(keys[stores])
        touched = np.isin(keys, stored)
        keys, warps = keys[touched], warps[touched]
        order = np.lexsort((warps, keys))
        keys, warps = keys[order], warps[order]
        return bool(np.any((keys[1:] == keys[:-1]) & (warps[1:] != warps[:-1])))


def run_kernel(
    kernel: Kernel,
    launch: LaunchConfig,
    memory: MemoryImage,
    warp_size: int = 32,
    max_warp_instructions: int = 2_000_000,
) -> ColumnarTrace:
    """Execute a kernel launch and return its full dynamic trace.

    ``memory`` is the global memory image (mutated in place by stores).
    Each CTA gets a private, zero-initialized shared memory.  Warps of a
    CTA synchronize at ``bar.sync``: every warp reaches its next barrier
    (or completion) before any warp continues past it, so pre-barrier
    shared-memory writes are visible after the barrier.  The trace and
    the final memory image are those of the reference order (each warp
    to its barrier in turn, CTAs in turn); a lockstep run whose result
    could depend on the order, or that raised, is replayed in that
    order, and a strict image always runs in it.  A warp that records
    more than ``max_warp_instructions`` rows raises
    :class:`~repro.errors.ExecutionError`.
    """
    telemetry = get_telemetry()
    with telemetry.span(
        f"execute:{kernel.name}", cat="kernel", kernel=kernel.name, warp_size=warp_size
    ), np.errstate(all="ignore"):
        args = (kernel, launch, memory, warp_size, max_warp_instructions)
        # A strict image faults on the first read of an unmapped page,
        # which depends on the order: it always runs in reference order.
        replay = False
        engine = None
        if not memory.strict:
            before = memory.snapshot()
            engine = _lockstep(args)
            if engine is None:
                replay = True
                memory.restore(before)
            del before
        if engine is None:
            engine = _Engine(*args)
            engine.run_sequential()
        trace = ColumnarTrace.pack(kernel.name, warp_size, engine.rows)
    if telemetry.enabled:
        record_columnar_warps(telemetry, trace, opcode_labels())
        telemetry.count("lockstep_steps", len(engine.rows))
        telemetry.count("lockstep_replays", int(replay))
        for depth in engine.max_stack_depth:
            telemetry.observe("reconvergence_stack_depth", depth)
    return trace


def _lockstep(args: tuple) -> _Engine | None:
    """The lockstep run, or None when its result could depend on order."""
    engine = _Engine(*args)
    try:
        engine.run_lockstep()
    except ReproError:
        return None
    return None if engine.order_sensitive() else engine
