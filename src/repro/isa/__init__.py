"""The PTX-like SIMT instruction set: opcodes, instructions, kernels.

Public surface:

* :class:`~repro.isa.opcodes.Opcode` / :class:`~repro.isa.opcodes.OpCategory`
* :class:`~repro.isa.instructions.Instruction`,
  :class:`~repro.isa.instructions.Reg`,
  :class:`~repro.isa.instructions.Imm`,
  :class:`~repro.isa.instructions.SpecialReg`
* :class:`~repro.isa.kernel.Kernel` and friends
* :class:`~repro.isa.builder.KernelBuilder` — the way kernels are written
"""

from repro.isa.builder import KernelBuilder
from repro.isa.disasm import disassemble
from repro.isa.instructions import Imm, Instruction, Reg, SpecialReg
from repro.isa.kernel import (
    EXIT_NODE,
    BasicBlock,
    Branch,
    Exit,
    Jump,
    Kernel,
    immediate_postdominators,
)
from repro.isa.liveness import (
    BlockLiveness,
    BranchRegion,
    block_liveness,
    branch_regions,
)
from repro.isa.opcodes import (
    LONG_LATENCY_ALU,
    SFU_ENERGY_FACTOR,
    OpCategory,
    Opcode,
    category_of,
    has_destination,
    is_control,
    is_load,
    is_sfu,
    is_store,
    source_arity,
)

__all__ = [
    "EXIT_NODE",
    "LONG_LATENCY_ALU",
    "SFU_ENERGY_FACTOR",
    "BasicBlock",
    "BlockLiveness",
    "BranchRegion",
    "Branch",
    "Exit",
    "Imm",
    "Instruction",
    "Jump",
    "Kernel",
    "KernelBuilder",
    "OpCategory",
    "Opcode",
    "Reg",
    "SpecialReg",
    "block_liveness",
    "branch_regions",
    "category_of",
    "disassemble",
    "has_destination",
    "immediate_postdominators",
    "is_control",
    "is_load",
    "is_sfu",
    "is_store",
    "source_arity",
]
