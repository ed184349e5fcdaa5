"""Compiler-assisted decompress-move elision, which the paper sketches
but does not build.

:class:`MoveElisionAnalysis` — §3.3: "a compiler-assisted technique
can analyze the lifetime of registers at compile time and identify
which registers will store dead values", eliding the decompress-move a
divergent write to a compressed register otherwise needs.  A move is
elidable when the destination's stale content can never be observed:
the register is not live into the write's branch-region reconvergence
point *and* not live into the sibling arm.  (Reads inside the writer's
own region run under sub-masks of the write, so they only see lanes
the write produced.)

The paper's other compile-time technique, §6's scalarizer [Lee et al.,
CGO 2013], is the uniformity analysis
(:func:`repro.analysis.static_.uniformity.analyze_uniformity`): its
``PROVABLY_SCALAR`` sites feed both ``repro staticdyn`` and the extras
row "compile-time scalarization vs G-Scalar".
"""

from __future__ import annotations

from repro.isa.kernel import EXIT_NODE, Kernel
from repro.isa.liveness import block_liveness, branch_regions


class MoveElisionAnalysis:
    """Static dead-value analysis for decompress-move elision (§3.3)."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._liveness = block_liveness(kernel)
        self._regions = branch_regions(kernel)
        self._arm_membership: dict[tuple[int, int], bool] = {}

    def _reachable_within_region(self, start: int, stop: int, target: int) -> bool:
        """Is ``target`` reachable from ``start`` without passing ``stop``?"""
        key = (start, target)
        if key in self._arm_membership:
            return self._arm_membership[key]
        seen: set[int] = set()
        stack = [start]
        found = False
        while stack:
            node = stack.pop()
            if node in seen or node == stop or node == EXIT_NODE:
                continue
            seen.add(node)
            if node == target:
                found = True
                break
            stack.extend(self.kernel.blocks[node].successors())
        self._arm_membership[key] = found
        return found

    def _live_in(self, block: int) -> set[int]:
        if block == EXIT_NODE:
            return set()
        return self._liveness.live_in[block]

    def move_elidable(self, block_id: int, register: int) -> bool:
        """May a divergent write to ``register`` in ``block_id`` skip the
        decompress-move?  True only when provably safe."""
        region = self._regions.get(block_id)
        if region is None:
            # Divergent execution outside any conditional region (e.g. a
            # ragged tail warp): keep the move.
            return False
        if register in self._live_in(region.reconvergence):
            return False  # stale lanes may be read after reconvergence
        # The sibling arm executes after this arm under the SIMT stack;
        # its reads would observe the corrupted storage format.
        in_taken = self._reachable_within_region(
            region.taken_head, region.reconvergence, block_id
        )
        sibling = region.not_taken_head if in_taken else region.taken_head
        if register in self._live_in(sibling):
            return False
        return True
