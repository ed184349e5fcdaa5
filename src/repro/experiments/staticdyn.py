"""Static vs. dynamic scalarization — the paper's §6 comparison, quantified.

The paper argues (§6, citing Lee et al. [CGO 2013]) that compile-time
scalarization finds far fewer scalar instructions than G-Scalar's
dynamic detection, because a compiler must *prove* warp-uniformity
while the hardware merely *observes* it.  This experiment measures that
gap directly: run the static divergence analysis
(:mod:`repro.analysis.static_.uniformity`) over every workload kernel,
join each dynamic trace event back to its static instruction site, and
score the predictor against the tracker's ground truth:

* **precision** — of the dynamic events at PROVABLY_SCALAR sites, the
  fraction the tracker indeed found scalar.  The prediction is sound,
  so this measures only the detector's value granularity (e.g. a
  uniform 64-bit pair the byte-level comparator still certifies).
* **recall** — of the dynamically *full-scalar* events (ALU/SFU/MEM
  buckets, the ones a compile-time scalarizer targets), the fraction
  that occurred at PROVABLY_SCALAR sites.  The shortfall is G-Scalar's
  headroom over static scalarization.
* **coverage** — PROVABLY_SCALAR events over all dynamic events.

Soundness invariant (tested): a PROVABLY_SCALAR site never executes
under a mask narrower than its warp's entry mask, so the static
analysis can never promise a scalar pipe to a lane-divergent
instruction.  Tail warps launch with partial masks; all comparisons are
therefore relative to each warp's *entry* mask, not the full-warp mask,
and a DIVERGENT_SCALAR event at the entry mask counts as a correct
prediction (the §4.2 mask-equality rule certifies it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.static_.uniformity import StaticScalarClass, UniformityResult
from repro.analysis.static_.widths import WidthResult
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import render_table
from repro.isa.kernel import Kernel
from repro.isa.opcodes import Opcode
from repro.scalar.columns import ClassifiedColumns
from repro.scalar.eligibility import SCALAR_CLASS_TO_ID, ScalarClass
from repro.simt.trace import ID_TO_OPCODE, OPCODE_TO_ID

_BRA_ID = OPCODE_TO_ID[Opcode.BRA]
_FULL_SCALAR_IDS = [
    SCALAR_CLASS_TO_ID[c] for c in ScalarClass if c.is_full_scalar
]
_DIVERGENT_SCALAR_ID = SCALAR_CLASS_TO_ID[ScalarClass.DIVERGENT_SCALAR]
#: The summaries :func:`compute` and :func:`compute_widths` read.
SUMMARIES = ("staticdyn",)


def _site_table(kernel: Kernel, values, fill) -> tuple[np.ndarray, np.ndarray]:
    """``(block_offsets, table)``: one entry per static body site.

    Site ``(block, index)`` is entry ``block_offsets[block] + index``
    of ``table``; ``values(block, index, inst)`` fills it.  One last
    ``fill`` entry, at ``block_offsets[-1]``, stands for "no site".
    """
    lengths = [len(block.instructions) for block in kernel.blocks]
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    table = np.array(
        [
            values(block.block_id, index, inst)
            for block in kernel.blocks
            for index, inst in enumerate(block.instructions)
        ]
        + [fill]
    )
    return offsets, table


def _site_rows(
    offsets: np.ndarray, blocks: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Row of each event's site in a :func:`_site_table` (``BRA``
    events get the "no site" row)."""
    return np.where(index >= 0, offsets[blocks] + index, offsets[-1])


def annotate_sites(
    kernel: Kernel, columns: ClassifiedColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Each dynamic event's *static site*: ``(block_ids, body_index)``.

    The trace does not record sites, so they are recovered from the
    block ids: events of one block body arrive in program order.  A run
    of body events starts at each warp start, at each block change and
    after each ``BRA`` (a terminator: the next event starts a new body,
    possibly of the *same* block for a self-loop); an event's index is
    its distance from the run start modulo the body length (the same
    block re-entered back-to-back by both arms of a degenerate branch).
    ``BRA`` terminators have no body index: ``-1``.  Raises
    ``ValueError`` when an event's opcode is not its site's.
    """
    blocks = columns.blocks.astype(np.int64)
    count = blocks.size
    is_bra = columns.opcode_ids == _BRA_ID
    offsets, static_opcodes = _site_table(
        kernel, lambda block, index, inst: OPCODE_TO_ID[inst.opcode], -1
    )
    lengths = np.diff(offsets)
    warp_starts = columns.warp_bounds()[:-1]
    positions = np.arange(count, dtype=np.int64)
    run_start = np.zeros(count, dtype=bool)
    run_start[warp_starts[columns.warp_lengths > 0]] = True
    run_start[1:] |= (blocks[1:] != blocks[:-1]) | is_bra[:-1]
    start_of_run = np.maximum.accumulate(np.where(run_start, positions, 0))
    body = lengths[blocks]
    index = np.where(
        is_bra | (body == 0), -1, (positions - start_of_run) % np.maximum(body, 1)
    )
    wrong = ~is_bra & (
        static_opcodes[_site_rows(offsets, blocks, index)] != columns.opcode_ids
    )
    if wrong.any():
        first = int(np.flatnonzero(wrong)[0])
        warp_start = int(warp_starts[np.searchsorted(warp_starts, first, "right") - 1])
        block = int(blocks[first])
        if body[first]:
            site = int(index[first])
            static = kernel.blocks[block].instructions[site].opcode.name
        else:
            site, static = 0, "past the block end"
        raise ValueError(
            f"trace desynchronized from kernel {kernel.name!r}: event "
            f"{first - warp_start} is "
            f"{ID_TO_OPCODE[int(columns.opcode_ids[first])].name} but static "
            f"site b{block}:i{site} is {static}"
        )
    return blocks, index


def _entry_masks(columns: ClassifiedColumns) -> np.ndarray:
    """Per event: the active mask of its warp's first event."""
    lengths = columns.warp_lengths
    starts = columns.warp_bounds()[:-1][lengths > 0]
    return np.repeat(columns.masks[starts], lengths[lengths > 0])


@dataclass
class StaticDynRow:
    """Per-benchmark join of static predictions and dynamic outcomes."""

    abbr: str
    #: Static-site counts from the uniformity analysis.
    static_provable: int
    static_possible: int
    static_divergent: int
    #: Dynamic event counts.
    total_events: int
    predicted_events: int  # events at PROVABLY_SCALAR sites
    true_positive_events: int  # ...that the tracker found scalar
    dynamic_full_scalar_events: int  # tracker's ALU/SFU/MEM buckets
    recalled_events: int  # ...that sit at PROVABLY_SCALAR sites
    soundness_violations: int  # predicted events under a narrowed mask

    @property
    def precision(self) -> float:
        if self.predicted_events == 0:
            return 1.0
        return self.true_positive_events / self.predicted_events

    @property
    def recall(self) -> float:
        if self.dynamic_full_scalar_events == 0:
            return 1.0
        return self.recalled_events / self.dynamic_full_scalar_events

    @property
    def coverage(self) -> float:
        if self.total_events == 0:
            return 0.0
        return self.predicted_events / self.total_events


@dataclass
class StaticDynData:
    rows: list[StaticDynRow]

    def _average(self, getter) -> float:
        if not self.rows:
            return 0.0
        return sum(getter(r) for r in self.rows) / len(self.rows)

    @property
    def average_precision(self) -> float:
        return self._average(lambda r: r.precision)

    @property
    def average_recall(self) -> float:
        return self._average(lambda r: r.recall)

    @property
    def average_coverage(self) -> float:
        return self._average(lambda r: r.coverage)

    @property
    def total_soundness_violations(self) -> int:
        return sum(r.soundness_violations for r in self.rows)


def score_benchmark(
    abbr: str,
    kernel: Kernel,
    columns: ClassifiedColumns,
    sites: tuple[np.ndarray, np.ndarray],
    uniformity: UniformityResult,
) -> StaticDynRow:
    """Join one benchmark's static predictions (``kernel``'s
    :func:`~repro.analysis.static_.uniformity.analyze_uniformity`
    result) against its trace, whose events sit at ``sites``
    (:func:`annotate_sites`)."""
    counts = uniformity.counts()
    offsets, provable = _site_table(
        kernel,
        lambda block, index, inst: uniformity.class_of(block, index)
        is StaticScalarClass.PROVABLY_SCALAR,
        False,
    )
    blocks, index = sites
    # BRA terminators are not classified statically: "no site", False.
    predicted = provable[_site_rows(offsets, blocks, index)]
    at_entry = columns.masks == _entry_masks(columns)
    is_full = np.isin(columns.scalar_class_ids, _FULL_SCALAR_IDS)
    # A divergent-scalar event at the entry mask is a partial-launch
    # tail warp: still scalar.
    tail_scalar = (columns.scalar_class_ids == _DIVERGENT_SCALAR_ID) & at_entry
    recalled = int(np.count_nonzero(predicted & is_full))
    return StaticDynRow(
        abbr=abbr,
        static_provable=counts[StaticScalarClass.PROVABLY_SCALAR],
        static_possible=counts[StaticScalarClass.POSSIBLY_SCALAR],
        static_divergent=counts[StaticScalarClass.DIVERGENT],
        total_events=columns.num_events,
        predicted_events=int(np.count_nonzero(predicted)),
        true_positive_events=recalled
        + int(np.count_nonzero(predicted & ~is_full & tail_scalar)),
        dynamic_full_scalar_events=int(np.count_nonzero(is_full)),
        recalled_events=recalled,
        soundness_violations=int(np.count_nonzero(predicted & ~at_entry)),
    )


def compute(runner: ExperimentRunner) -> StaticDynData:
    """Score the static predictor against every benchmark's trace."""
    return StaticDynData(
        rows=[
            runner.summary(abbr, "staticdyn")[0]
            for abbr in runner.benchmark_names()
        ]
    )


# ----------------------------------------------------------------------
# Width-claim validation (``repro staticdyn --widths``).
# ----------------------------------------------------------------------
@dataclass
class WidthDynRow:
    """Per-benchmark join of static width claims and dynamic encodings.

    Every dynamic write event is compared against its static site's
    *guaranteed* ``enc`` claim (``WidthResult.site_claims``).  An
    **over-claim** — the tracker observing fewer redundant prefix bytes
    than the analysis guaranteed — is a soundness bug; the gate demands
    zero.  Byte-level scores quantify the static/dynamic gap:

    * **precision** — of the prefix bytes the analysis claimed, the
      fraction the tracker confirmed (1.0 exactly when sound);
    * **recall** — of the prefix bytes the tracker observed, the
      fraction the analysis proved (the headroom dynamic detection
      keeps over the compile-time variant);
    * **coverage** — write events at sites with a non-zero claim, over
      all write events.
    """

    abbr: str
    narrow_registers: int
    registers: int
    write_events: int
    claimed_events: int  # write events whose site claims enc >= 1
    over_claims: int  # events where observed enc < claimed enc
    claimed_bytes: int  # sum of static claims over write events
    confirmed_bytes: int  # sum of min(claim, observed)
    observed_bytes: int  # sum of dynamic enc over write events

    @property
    def precision(self) -> float:
        if self.claimed_bytes == 0:
            return 1.0
        return self.confirmed_bytes / self.claimed_bytes

    @property
    def recall(self) -> float:
        if self.observed_bytes == 0:
            return 1.0
        return self.claimed_bytes / self.observed_bytes

    @property
    def coverage(self) -> float:
        if self.write_events == 0:
            return 0.0
        return self.claimed_events / self.write_events


@dataclass
class WidthDynData:
    rows: list[WidthDynRow]

    def _average(self, getter) -> float:
        if not self.rows:
            return 0.0
        return sum(getter(r) for r in self.rows) / len(self.rows)

    @property
    def average_precision(self) -> float:
        return self._average(lambda r: r.precision)

    @property
    def average_recall(self) -> float:
        return self._average(lambda r: r.recall)

    @property
    def average_coverage(self) -> float:
        return self._average(lambda r: r.coverage)

    @property
    def total_over_claims(self) -> int:
        return sum(r.over_claims for r in self.rows)


def score_widths_benchmark(
    abbr: str,
    kernel: Kernel,
    columns: ClassifiedColumns,
    sites: tuple[np.ndarray, np.ndarray],
    result: WidthResult,
) -> WidthDynRow:
    """Join one benchmark's width claims (``result``, the kernel's width
    analysis at the trace's warp size) against its dynamic trace, whose
    events sit at ``sites`` (:func:`annotate_sites`)."""
    counts = result.counts()
    offsets, claims = _site_table(
        kernel, lambda block, index, inst: result.claim_at(block, index) or 0, 0
    )
    blocks, index = sites
    writes = (index >= 0) & columns.has_dst_enc
    claim = claims[_site_rows(offsets, blocks, index)[writes]].astype(np.int64)
    observed = columns.dst_enc[writes].astype(np.int64)
    return WidthDynRow(
        abbr=abbr,
        narrow_registers=counts["narrow_registers"],
        registers=counts["registers"],
        write_events=int(np.count_nonzero(writes)),
        claimed_events=int(np.count_nonzero(claim >= 1)),
        over_claims=int(np.count_nonzero(observed < claim)),
        claimed_bytes=int(claim.sum()),
        confirmed_bytes=int(np.minimum(claim, observed).sum()),
        observed_bytes=int(observed.sum()),
    )


def compute_widths(runner: ExperimentRunner) -> WidthDynData:
    """Validate the width analysis against every benchmark's trace."""
    return WidthDynData(
        rows=[
            runner.summary(abbr, "staticdyn")[1]
            for abbr in runner.benchmark_names()
        ]
    )


def render_widths(data: WidthDynData) -> str:
    """The width-claim validation as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{row.narrow_registers}/{row.registers}",
            f"{100 * row.coverage:.1f}",
            f"{100 * row.precision:.1f}",
            f"{100 * row.recall:.1f}",
            str(row.over_claims),
        )
        for row in data.rows
    ]
    table_rows.append(
        (
            "AVG",
            "-",
            f"{100 * data.average_coverage:.1f}",
            f"{100 * data.average_precision:.1f}",
            f"{100 * data.average_recall:.1f}",
            str(data.total_over_claims),
        )
    )
    body = render_table(
        ["bench", "narrow regs", "coverage", "precision", "recall", "over-claims"],
        table_rows,
        title="Static width claims vs dynamic enc prefixes (% of write events)",
    )
    verdict = (
        "SOUND: every static width claim was dynamically observed"
        if data.total_over_claims == 0
        else f"UNSOUND: {data.total_over_claims} write event(s) narrower than claimed"
    )
    return (
        body
        + "\nrecall shortfall = headroom dynamic byte-prefix detection keeps"
        + "\nover compile-time proven widths (analysis.static_.widths)"
        + f"\n{verdict}"
    )


def render(data: StaticDynData) -> str:
    """The comparison as a text table."""
    table_rows = [
        (
            row.abbr,
            f"{row.static_provable}/{row.static_possible}/{row.static_divergent}",
            f"{100 * row.coverage:.1f}",
            f"{100 * row.precision:.1f}",
            f"{100 * row.recall:.1f}",
            str(row.soundness_violations),
        )
        for row in data.rows
    ]
    table_rows.append(
        (
            "AVG",
            "-",
            f"{100 * data.average_coverage:.1f}",
            f"{100 * data.average_precision:.1f}",
            f"{100 * data.average_recall:.1f}",
            str(data.total_soundness_violations),
        )
    )
    body = render_table(
        ["bench", "static p/m/d", "coverage", "precision", "recall", "unsound"],
        table_rows,
        title="Static vs dynamic scalarization (% of dynamic instructions)",
    )
    return (
        body
        + "\nstatic p/m/d = provably/possibly-scalar/divergent static sites"
        + "\nrecall shortfall = dynamic G-Scalar's headroom over a"
        + "\ncompile-time scalarizer [Lee et al., CGO 2013] (paper, section 6)"
    )
