"""The functional SIMT executor.

Executes a kernel warp by warp, handling branch divergence with the
classic immediate-post-dominator reconvergence stack (the same scheme
GPGPU-Sim and Fermi-class hardware use), and records a full dynamic
trace with operand values for the downstream compression, scalar and
power models.  Each warp appends one row per dynamic instruction to its
:class:`~repro.simt.trace.WarpRows` buffer; :func:`run_kernel` packs
the buffers into one :class:`~repro.simt.trace.ColumnarTrace`.

Warps of a CTA synchronize at ``bar.sync`` barriers: the coordinator in
:func:`run_kernel` runs every warp to its next barrier (or completion)
before releasing any of them past it, so pre-barrier shared-memory
writes are visible after the barrier.  There is no *sub*-barrier
interleaving — the model is not a race detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.isa.instructions import Imm, Instruction, Operand, Reg, SpecialReg
from repro.isa.kernel import EXIT_NODE, Branch, Exit, Jump, Kernel, immediate_postdominators
from repro.isa.opcodes import Opcode
from repro.obs.instrument import record_columnar_warps
from repro.obs.telemetry import get_telemetry
from repro.simt.grid import LaunchConfig, WarpIdentity, enumerate_warps, mask_to_int
from repro.simt.memory_state import MemoryImage
from repro.simt.special import UNARY_SFU, sfu_fdiv
from repro.simt.trace import OPCODE_TO_ID, ColumnarTrace, WarpRows, opcode_labels

#: Specials whose value differs between lanes of a warp.
_VARYING_SPECIALS = frozenset({SpecialReg.TID, SpecialReg.LANE})

_BRA_ID = OPCODE_TO_ID[Opcode.BRA]
_BAR_ID = OPCODE_TO_ID[Opcode.BAR]


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


def _u32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.uint32)


def _f32(bits: np.ndarray) -> np.ndarray:
    return _u32(bits).view(np.float32)


def _from_f32(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)


def _i32(bits: np.ndarray) -> np.ndarray:
    return _u32(bits).view(np.int32)


class WarpExecutor:
    """Functional execution of a single warp."""

    def __init__(
        self,
        kernel: Kernel,
        identity: WarpIdentity,
        global_memory: MemoryImage,
        shared_memory: MemoryImage,
        ipdom: dict[int, int],
        max_instructions: int,
    ):
        self.kernel = kernel
        self.identity = identity
        self.global_memory = global_memory
        self.shared_memory = shared_memory
        self.ipdom = ipdom
        self.max_instructions = max_instructions
        self.warp_size = identity.warp_size
        self.registers = np.zeros((kernel.num_registers, self.warp_size), dtype=np.uint32)
        self._tid = identity.global_thread_ids()
        self._lane = identity.lane_indices()
        self.rows = WarpRows(identity.warp_id)
        self._stack: list[_StackEntry] | None = None
        self._executed = 0
        #: Deepest reconvergence-stack nesting reached (telemetry).
        self.max_stack_depth = 1

    # ------------------------------------------------------------------
    # Operand evaluation.
    # ------------------------------------------------------------------
    def _value_of(self, operand: Operand) -> np.ndarray:
        if isinstance(operand, Reg):
            return self.registers[operand.index]
        if isinstance(operand, Imm):
            return np.full(self.warp_size, operand.value, dtype=np.uint32)
        if operand is SpecialReg.TID:
            return self._tid
        if operand is SpecialReg.LANE:
            return self._lane
        if operand is SpecialReg.CTAID:
            return np.full(self.warp_size, self.identity.cta_id, dtype=np.uint32)
        if operand is SpecialReg.WARP_IN_CTA:
            return np.full(self.warp_size, self.identity.warp_in_cta, dtype=np.uint32)
        if operand is SpecialReg.NTID:
            return np.full(self.warp_size, self.identity.cta_dim, dtype=np.uint32)
        raise ExecutionError(f"unknown operand {operand!r}")

    # ------------------------------------------------------------------
    # Opcode semantics (all compute full-warp arrays; masking happens
    # at write-back).
    # ------------------------------------------------------------------
    def _compute(self, inst: Instruction, values: list[np.ndarray]) -> np.ndarray:
        op = inst.opcode
        with np.errstate(all="ignore"):
            if op is Opcode.MOV or op is Opcode.DECOMPRESS_MOV:
                return values[0].copy()
            if op is Opcode.IADD:
                return values[0] + values[1]
            if op is Opcode.ISUB:
                return values[0] - values[1]
            if op is Opcode.IMUL:
                return values[0] * values[1]
            if op is Opcode.IMAD:
                return values[0] * values[1] + values[2]
            if op is Opcode.IDIV:
                return self._signed_div(values[0], values[1])
            if op is Opcode.IREM:
                return self._signed_rem(values[0], values[1])
            if op is Opcode.IMIN:
                return np.minimum(_i32(values[0]), _i32(values[1])).view(np.uint32)
            if op is Opcode.IMAX:
                return np.maximum(_i32(values[0]), _i32(values[1])).view(np.uint32)
            if op is Opcode.AND:
                return values[0] & values[1]
            if op is Opcode.OR:
                return values[0] | values[1]
            if op is Opcode.XOR:
                return values[0] ^ values[1]
            if op is Opcode.NOT:
                return ~values[0]
            if op is Opcode.SHL:
                return values[0] << (values[1] & 31)
            if op is Opcode.SHR:
                return values[0] >> (values[1] & 31)
            if op is Opcode.SETEQ:
                return (values[0] == values[1]).astype(np.uint32)
            if op is Opcode.SETNE:
                return (values[0] != values[1]).astype(np.uint32)
            if op is Opcode.SETLT:
                return (_i32(values[0]) < _i32(values[1])).astype(np.uint32)
            if op is Opcode.SETLE:
                return (_i32(values[0]) <= _i32(values[1])).astype(np.uint32)
            if op is Opcode.SETGT:
                return (_i32(values[0]) > _i32(values[1])).astype(np.uint32)
            if op is Opcode.SETGE:
                return (_i32(values[0]) >= _i32(values[1])).astype(np.uint32)
            if op is Opcode.SELP:
                return np.where(values[2] != 0, values[0], values[1])
            if op is Opcode.FADD:
                return _from_f32(_f32(values[0]) + _f32(values[1]))
            if op is Opcode.FSUB:
                return _from_f32(_f32(values[0]) - _f32(values[1]))
            if op is Opcode.FMUL:
                return _from_f32(_f32(values[0]) * _f32(values[1]))
            if op is Opcode.FFMA:
                product = _f32(values[0]).astype(np.float32) * _f32(values[1])
                return _from_f32(product + _f32(values[2]))
            if op is Opcode.FMIN:
                return _from_f32(np.fmin(_f32(values[0]), _f32(values[1])))
            if op is Opcode.FMAX:
                return _from_f32(np.fmax(_f32(values[0]), _f32(values[1])))
            if op is Opcode.FSETLT:
                return (_f32(values[0]) < _f32(values[1])).astype(np.uint32)
            if op is Opcode.FSETGT:
                return (_f32(values[0]) > _f32(values[1])).astype(np.uint32)
            if op is Opcode.FSETLE:
                return (_f32(values[0]) <= _f32(values[1])).astype(np.uint32)
            if op is Opcode.FSETGE:
                return (_f32(values[0]) >= _f32(values[1])).astype(np.uint32)
            if op is Opcode.FABS:
                return values[0] & np.uint32(0x7FFFFFFF)
            if op is Opcode.FNEG:
                return values[0] ^ np.uint32(0x80000000)
            if op is Opcode.I2F:
                return _from_f32(_i32(values[0]).astype(np.float32))
            if op is Opcode.F2I:
                floats = _f32(values[0]).astype(np.float64)
                floats = np.nan_to_num(floats, nan=0.0, posinf=2**31 - 1, neginf=-(2**31))
                clipped = np.clip(np.trunc(floats), -(2**31), 2**31 - 1)
                return clipped.astype(np.int64).astype(np.int32).view(np.uint32)
            if op in UNARY_SFU:
                return UNARY_SFU[op](values[0])
            if op is Opcode.FDIV:
                return sfu_fdiv(values[0], values[1])
        raise ExecutionError(f"no functional semantics for opcode {op.value}")

    @staticmethod
    def _signed_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dividend = _i32(a).astype(np.int64)
        divisor = _i32(b).astype(np.int64)
        safe = np.where(divisor == 0, 1, divisor)
        quotient = np.trunc(dividend / safe).astype(np.int64)
        # CUDA defines signed division by zero as returning -1 (all ones).
        quotient = np.where(divisor == 0, -1, quotient)
        return quotient.astype(np.int32).view(np.uint32)

    @staticmethod
    def _signed_rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dividend = _i32(a).astype(np.int64)
        divisor = _i32(b).astype(np.int64)
        safe = np.where(divisor == 0, 1, divisor)
        quotient = np.trunc(dividend / safe).astype(np.int64)
        remainder = dividend - quotient * safe
        remainder = np.where(divisor == 0, dividend, remainder)
        return remainder.astype(np.int32).view(np.uint32)

    # ------------------------------------------------------------------
    # Instruction execution with masking and trace recording.
    # ------------------------------------------------------------------
    def _execute_instruction(
        self, inst: Instruction, entry: _StackEntry, block_id: int
    ) -> None:
        op = inst.opcode
        mask = entry.mask
        values = [self._value_of(s) for s in inst.srcs]
        varying = any(
            isinstance(s, SpecialReg) and s in _VARYING_SPECIALS for s in inst.srcs
        )
        scalar_nonreg = sum(
            1
            for s in inst.srcs
            if isinstance(s, Imm)
            or (isinstance(s, SpecialReg) and s not in _VARYING_SPECIALS)
        )
        addresses: np.ndarray | None = None

        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
            addresses = values[0].copy()
            memory = self.global_memory if op is Opcode.LD_GLOBAL else self.shared_memory
            computed = memory.load(addresses, mask)
        elif op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
            addresses = values[0].copy()
            memory = self.global_memory if op is Opcode.ST_GLOBAL else self.shared_memory
            memory.store(addresses, values[1], mask)
            computed = None
        else:
            computed = self._compute(inst, values)

        dst_snapshot: np.ndarray | None = None
        if inst.dst is not None and computed is not None:
            register = self.registers[inst.dst.index]
            np.copyto(register, computed, where=mask)
            dst_snapshot = register.copy()

        self.rows.append(
            OPCODE_TO_ID[op],
            -1 if inst.dst is None else inst.dst.index,
            [r.index for r in inst.source_registers],
            entry.bits,
            block_id,
            dst_snapshot,
            addresses,
            varying,
            scalar_nonreg,
        )

    # ------------------------------------------------------------------
    # SIMT-stack main loop.
    # ------------------------------------------------------------------
    def run_until_barrier(self) -> str:
        """Execute until the next CTA barrier or completion.

        Returns ``"barrier"`` when paused at a ``bar.sync`` (call again
        to continue past it once the CTA coordinator releases it) or
        ``"done"`` when the warp finished.
        """
        if self._stack is None:
            initial = self.identity.initial_mask()
            if not initial.any():
                self._stack = []
                return "done"
            self._stack = [_StackEntry(pc=0, rpc=EXIT_NODE, mask=initial)]
        stack = self._stack
        while stack:
            entry = stack[-1]
            if entry.pc == entry.rpc or entry.pc == EXIT_NODE:
                stack.pop()
                continue
            block = self.kernel.blocks[entry.pc]
            paused = self._execute_block_body(entry, block)
            if paused:
                return "barrier"
            entry.inst_index = 0
            terminator = block.terminator
            if isinstance(terminator, Jump):
                entry.pc = terminator.target
            elif isinstance(terminator, Exit):
                entry.pc = EXIT_NODE
            elif isinstance(terminator, Branch):
                cond = self.registers[terminator.cond.index]
                taken_mask = entry.mask & (cond != 0)
                not_taken_mask = entry.mask & ~taken_mask
                self.rows.append(
                    _BRA_ID, -1, (terminator.cond.index,), entry.bits, block.block_id
                )
                self._executed += 1
                if not not_taken_mask.any():
                    entry.pc = terminator.taken
                elif not taken_mask.any():
                    entry.pc = terminator.not_taken
                else:
                    reconvergence = self.ipdom[block.block_id]
                    entry.pc = reconvergence
                    stack.append(
                        _StackEntry(
                            pc=terminator.not_taken, rpc=reconvergence, mask=not_taken_mask
                        )
                    )
                    stack.append(
                        _StackEntry(pc=terminator.taken, rpc=reconvergence, mask=taken_mask)
                    )
                    if len(stack) > self.max_stack_depth:
                        self.max_stack_depth = len(stack)
            else:
                raise ExecutionError(f"unknown terminator {terminator!r}")
        return "done"

    def _execute_block_body(self, entry: _StackEntry, block) -> bool:
        """Run the block's instructions from the entry's resume point.

        Returns True when paused at a barrier (resume point advanced
        past it), False when the block body completed.
        """
        instructions = block.instructions
        while entry.inst_index < len(instructions):
            inst = instructions[entry.inst_index]
            if inst.opcode is Opcode.BAR:
                if not np.array_equal(entry.mask, self.identity.initial_mask()):
                    raise ExecutionError(
                        f"warp {self.identity.warp_id}: bar.sync under a "
                        "divergent mask is undefined behaviour "
                        f"(kernel {self.kernel.name!r}, block {block.block_id})"
                    )
                self.rows.append(_BAR_ID, -1, (), entry.bits, block.block_id)
                self._executed += 1
                entry.inst_index += 1
                return True
            self._execute_instruction(inst, entry, block.block_id)
            self._executed += 1
            if self._executed > self.max_instructions:
                raise ExecutionError(
                    f"warp {self.identity.warp_id} exceeded "
                    f"{self.max_instructions} dynamic instructions "
                    f"(kernel {self.kernel.name!r}: runaway loop?)"
                )
            entry.inst_index += 1
        return False


def run_kernel(
    kernel: Kernel,
    launch: LaunchConfig,
    memory: MemoryImage,
    warp_size: int = 32,
    max_warp_instructions: int = 2_000_000,
) -> ColumnarTrace:
    """Execute a kernel launch and return its full dynamic trace.

    ``memory`` is the global memory image (mutated in place by stores).
    Each CTA gets a private, zero-initialized shared-memory image.
    Warps of a CTA synchronize at ``bar.sync``: every warp runs to its
    next barrier (or completion) before any warp continues past it, so
    pre-barrier shared-memory writes are visible after the barrier.
    The warps' row buffers are packed warp-major into one
    :class:`ColumnarTrace` at the end.
    """
    ipdom = immediate_postdominators(kernel)
    by_cta: dict[int, list[WarpExecutor]] = {}
    shared_by_cta: dict[int, MemoryImage] = {}
    for identity in enumerate_warps(launch, warp_size):
        shared = by_cta.setdefault(identity.cta_id, [])
        cta_shared = shared_by_cta.setdefault(identity.cta_id, MemoryImage())
        executor = WarpExecutor(
            kernel=kernel,
            identity=identity,
            global_memory=memory,
            shared_memory=cta_shared,
            ipdom=ipdom,
            max_instructions=max_warp_instructions,
        )
        shared.append(executor)
    executors = [executor for cta in by_cta.values() for executor in cta]
    telemetry = get_telemetry()
    with telemetry.span(
        f"execute:{kernel.name}", cat="kernel", kernel=kernel.name, warp_size=warp_size
    ):
        for cta_id, cta_executors in by_cta.items():
            _run_cta(kernel, cta_id, cta_executors)
        trace = ColumnarTrace.pack(
            kernel.name, warp_size, [executor.rows for executor in executors]
        )
    if telemetry.enabled:
        record_columnar_warps(telemetry, trace, opcode_labels())
        for executor in executors:
            telemetry.observe("reconvergence_stack_depth", executor.max_stack_depth)
    return trace


def _run_cta(kernel: Kernel, cta_id: int, executors: list["WarpExecutor"]) -> None:
    """Drive one CTA's warps with barrier coordination."""
    telemetry = get_telemetry()
    pending = list(executors)
    while pending:
        if telemetry.enabled:
            # One span per barrier-to-barrier execution segment of each
            # warp: the Chrome trace shows the CTA's warps on their own
            # rows (tid = warp id), one box per segment.
            statuses = []
            for executor in pending:
                with telemetry.span(
                    f"warp{executor.identity.warp_id}",
                    cat="warp",
                    tid=executor.identity.warp_id + 1,
                    cta=cta_id,
                ):
                    statuses.append(executor.run_until_barrier())
        else:
            statuses = [executor.run_until_barrier() for executor in pending]
        at_barrier = [
            executor
            for executor, status in zip(pending, statuses)
            if status == "barrier"
        ]
        finished = [
            executor
            for executor, status in zip(pending, statuses)
            if status == "done"
        ]
        if at_barrier and finished:
            raise ExecutionError(
                f"kernel {kernel.name!r}, CTA {cta_id}: warps "
                f"{[e.identity.warp_id for e in finished]} exited while "
                f"{[e.identity.warp_id for e in at_barrier]} wait at a "
                "barrier (barrier divergence across warps)"
            )
        pending = at_barrier
