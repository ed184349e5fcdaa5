"""Per-warp reference executor: the order the lockstep engine must match.

Executes a kernel one warp at a time: within each CTA, every warp runs
to its next ``bar.sync`` (or completion) before the next warp starts,
and CTAs run one after another.  Each warp keeps its own
immediate-post-dominator reconvergence stack and records one row per
dynamic instruction (instructions, ``bra``, ``bar.sync``) as a
one-warp step, so :meth:`~repro.simt.trace.ColumnarTrace.pack` builds
the same warp-major trace the production engine builds.  Opcode
semantics come from :data:`repro.simt.executor.SEMANTICS`; what this
module pins is the scheduling, masking, barrier, stack and memory
order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.isa.instructions import Imm, Instruction, Operand, Reg, SpecialReg
from repro.isa.kernel import EXIT_NODE, Branch, Exit, Jump, Kernel, immediate_postdominators
from repro.isa.opcodes import Opcode
from repro.simt.executor import _StackEntry, compute
from repro.simt.grid import LaunchConfig, WarpIdentity, enumerate_warps
from repro.simt.memory_state import MemoryImage
from repro.simt.trace import OPCODE_TO_ID, ColumnarTrace, StepRows

_VARYING_SPECIALS = frozenset({SpecialReg.TID, SpecialReg.LANE})

_BRA_ID = OPCODE_TO_ID[Opcode.BRA]
_BAR_ID = OPCODE_TO_ID[Opcode.BAR]


class WarpExecutor:
    """Functional execution of a single warp."""

    def __init__(
        self,
        kernel: Kernel,
        identity: WarpIdentity,
        position: int,
        rows: StepRows,
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
        self._position = np.array([position])
        self.rows = rows
        self._stack: list[_StackEntry] | None = None
        self._executed = 0
        self.max_stack_depth = 1

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

    def _record(self, opcode_id, dst, src_regs, entry, block_id, values=None,
                addresses=None, varying=False, scalar_nonreg=0) -> None:
        self.rows.append(
            opcode_id,
            dst,
            src_regs,
            self._position,
            np.array([entry.bits], dtype=np.uint64),
            block_id,
            None if values is None else values[None, :],
            None if addresses is None else addresses[None, :],
            varying,
            scalar_nonreg,
        )
        self._executed += 1
        if self._executed > self.max_instructions:
            raise ExecutionError(
                f"warp {self.identity.warp_id} exceeded "
                f"{self.max_instructions} dynamic instructions "
                f"(kernel {self.kernel.name!r}: runaway loop?)"
            )

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

        with np.errstate(all="ignore"):
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
                computed = compute(op, values)

        dst_snapshot: np.ndarray | None = None
        if inst.dst is not None and computed is not None:
            register = self.registers[inst.dst.index]
            np.copyto(register, computed, where=mask)
            dst_snapshot = register.copy()

        self._record(
            OPCODE_TO_ID[op],
            -1 if inst.dst is None else inst.dst.index,
            [r.index for r in inst.source_registers],
            entry,
            block_id,
            dst_snapshot,
            addresses,
            varying,
            scalar_nonreg,
        )

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
            if self._execute_block_body(entry, block):
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
                self._record(_BRA_ID, -1, (terminator.cond.index,), entry, block.block_id)
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
                    self.max_stack_depth = max(self.max_stack_depth, len(stack))
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
            entry.inst_index += 1
            if inst.opcode is Opcode.BAR:
                if not np.array_equal(entry.mask, self.identity.initial_mask()):
                    raise ExecutionError(
                        f"warp {self.identity.warp_id}: bar.sync under a "
                        "divergent mask is undefined behaviour "
                        f"(kernel {self.kernel.name!r}, block {block.block_id})"
                    )
                self._record(_BAR_ID, -1, (), entry, block.block_id)
                return True
            self._execute_instruction(inst, entry, block.block_id)
        return False


def run_kernel(
    kernel: Kernel,
    launch: LaunchConfig,
    memory: MemoryImage,
    warp_size: int = 32,
    max_warp_instructions: int = 2_000_000,
) -> ColumnarTrace:
    """Reference execution of a launch (same contract as the production
    :func:`repro.simt.executor.run_kernel`)."""
    ipdom = immediate_postdominators(kernel)
    identities = enumerate_warps(launch, warp_size)
    rows = StepRows([identity.warp_id for identity in identities])
    by_cta: dict[int, list[WarpExecutor]] = {}
    shared_by_cta: dict[int, MemoryImage] = {}
    for position, identity in enumerate(identities):
        by_cta.setdefault(identity.cta_id, []).append(
            WarpExecutor(
                kernel=kernel,
                identity=identity,
                position=position,
                rows=rows,
                global_memory=memory,
                shared_memory=shared_by_cta.setdefault(identity.cta_id, MemoryImage()),
                ipdom=ipdom,
                max_instructions=max_warp_instructions,
            )
        )
    for cta_id, executors in by_cta.items():
        _run_cta(kernel, cta_id, executors)
    return ColumnarTrace.pack(kernel.name, warp_size, rows)


def _run_cta(kernel: Kernel, cta_id: int, executors: list[WarpExecutor]) -> None:
    """Drive one CTA's warps with barrier coordination."""
    pending = list(executors)
    while pending:
        statuses = [executor.run_until_barrier() for executor in pending]
        at_barrier = [e for e, status in zip(pending, statuses) if status == "barrier"]
        finished = [e for e, status in zip(pending, statuses) if status == "done"]
        if at_barrier and finished:
            raise ExecutionError(
                f"kernel {kernel.name!r}, CTA {cta_id}: warps "
                f"{[e.identity.warp_id for e in finished]} exited while "
                f"{[e.identity.warp_id for e in at_barrier]} wait at a "
                "barrier (barrier divergence across warps)"
            )
        pending = at_barrier
