"""Register liveness and branch-region analysis over kernel CFGs.

Backs the compiler-assisted techniques the paper sketches:

* §3.3: "a compiler-assisted technique can analyze the lifetime of
  registers at compile time and identify which registers will store
  dead values", avoiding unnecessary decompress-move instructions
  (:class:`repro.scalar.compiler.MoveElisionAnalysis`); and
* §6: compile-time scalarization [Lee et al., CGO 2013], which G-Scalar
  is compared against.  The uniformity analysis
  (:mod:`repro.analysis.static_.uniformity`) masks every block of
  :func:`branch_region_members` whose branch condition is not provably
  warp-uniform.

:func:`block_liveness` is the classic backward may-liveness dataflow.
:func:`branch_regions` recovers, for every block, the innermost
single-entry/single-exit region created by a conditional branch: the
blocks strictly between the branch and its immediate post-dominator,
split by arm.  The structured :class:`~repro.isa.builder.KernelBuilder`
only emits such regions, so the recovery is exact for all workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.kernel import EXIT_NODE, Branch, Kernel, immediate_postdominators


@dataclass
class BlockLiveness:
    """use/def/live-in/live-out sets per block (register indices)."""

    use: dict[int, set[int]] = field(default_factory=dict)
    defs: dict[int, set[int]] = field(default_factory=dict)
    live_in: dict[int, set[int]] = field(default_factory=dict)
    live_out: dict[int, set[int]] = field(default_factory=dict)


def block_liveness(kernel: Kernel) -> BlockLiveness:
    """Backward may-liveness over the CFG (all writes kill)."""
    result = BlockLiveness()
    for block in kernel.blocks:
        use: set[int] = set()
        defined: set[int] = set()
        for inst in block.instructions:
            for src in inst.source_registers:
                if src.index not in defined:
                    use.add(src.index)
            if inst.dst is not None:
                defined.add(inst.dst.index)
        if isinstance(block.terminator, Branch):
            cond = block.terminator.cond.index
            if cond not in defined:
                use.add(cond)
        result.use[block.block_id] = use
        result.defs[block.block_id] = defined
        result.live_in[block.block_id] = set()
        result.live_out[block.block_id] = set()

    changed = True
    while changed:
        changed = False
        for block in reversed(kernel.blocks):
            block_id = block.block_id
            out: set[int] = set()
            for successor in block.successors():
                if successor != EXIT_NODE:
                    out |= result.live_in[successor]
            new_in = result.use[block_id] | (out - result.defs[block_id])
            if out != result.live_out[block_id] or new_in != result.live_in[block_id]:
                result.live_out[block_id] = out
                result.live_in[block_id] = new_in
                changed = True
    return result


@dataclass(frozen=True)
class BranchRegion:
    """One conditional region: branch block, its two arm heads, and the
    reconvergence block (the branch's immediate post-dominator)."""

    branch_block: int
    taken_head: int
    not_taken_head: int
    reconvergence: int

    def sibling_of(self, arm_head: int) -> int:
        """The other arm's head block."""
        return self.not_taken_head if arm_head == self.taken_head else self.taken_head


def branch_region_members(
    kernel: Kernel,
) -> list[tuple[BranchRegion, frozenset[int]]]:
    """Every conditional region with its full member-block set.

    One entry per two-way :class:`Branch` terminator (degenerate
    branches whose arms coincide create no region).  A block is a member
    when it is reachable from one of the branch's arms without passing
    through the branch's immediate post-dominator; nested regions
    overlap, so a block may appear in several entries.  An arm that is
    empty (its head *is* the reconvergence point) contributes no
    members, and a branch whose post-dominator is :data:`EXIT_NODE`
    spans everything reachable from its arms.
    """
    ipdom = immediate_postdominators(kernel)
    regions: list[tuple[BranchRegion, frozenset[int]]] = []
    for block in kernel.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        if terminator.taken == terminator.not_taken:
            continue
        reconvergence = ipdom[block.block_id]
        members: set[int] = set()
        stack = [terminator.taken, terminator.not_taken]
        while stack:
            node = stack.pop()
            if node == reconvergence or node == EXIT_NODE or node in members:
                continue
            members.add(node)
            stack.extend(kernel.blocks[node].successors())
        regions.append(
            (
                BranchRegion(
                    branch_block=block.block_id,
                    taken_head=terminator.taken,
                    not_taken_head=terminator.not_taken,
                    reconvergence=reconvergence,
                ),
                frozenset(members),
            )
        )
    return regions


def branch_regions(kernel: Kernel) -> dict[int, BranchRegion]:
    """Map each block to its *innermost* enclosing branch region.

    A block belongs to a branch's region when it is reachable from one
    of the branch's arms without passing through the branch's immediate
    post-dominator.  Innermost = the smallest such region.  Blocks
    outside every conditional (straight-line or loop-header code) are
    absent from the map.
    """
    innermost: dict[int, BranchRegion] = {}
    best_size: dict[int, int] = {}
    for region, members in branch_region_members(kernel):
        for member in members:
            if member not in best_size or len(members) < best_size[member]:
                best_size[member] = len(members)
                innermost[member] = region
    return innermost
