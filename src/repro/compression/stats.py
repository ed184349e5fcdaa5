"""Compression-ratio accounting across a dynamic trace.

Feeds the §5.3 comparison ("the average compression ratio of our
compression technique is 2.17, whereas that of BDI is 2.13") and the
per-benchmark breakdowns used by Figure 8 and Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.bdi import BDI_MODES, BdiMode, bdi_modes
from repro.compression.gscalar import compressed_bits, prefix_bytes_batch
from repro.merge import fixed
from repro.simt.trace import ColumnarTrace


@dataclass
class CompressionComparison:
    """Aggregated ours-vs-BDI statistics over register writes."""

    warp_size: int = fixed()
    registers_seen: int = 0
    ours_total_bits: int = 0
    bdi_total_bits: int = 0
    uncompressed_total_bits: int = 0
    enc_histogram: dict[int, int] = field(default_factory=lambda: {n: 0 for n in range(5)})
    bdi_histogram: dict[BdiMode, int] = field(
        default_factory=lambda: {m: 0 for m in BdiMode}
    )

    @property
    def ours_ratio(self) -> float:
        """Average compression ratio of the byte-wise technique."""
        if self.ours_total_bits == 0:
            return 1.0
        return self.uncompressed_total_bits / self.ours_total_bits

    @property
    def bdi_ratio(self) -> float:
        """Average compression ratio of BDI."""
        if self.bdi_total_bits == 0:
            return 1.0
        return self.uncompressed_total_bits / self.bdi_total_bits

    def enc_fractions(self) -> dict[int, float]:
        """Fraction of observed registers at each prefix length."""
        total = max(1, self.registers_seen)
        return {n: count / total for n, count in self.enc_histogram.items()}

    def observe_batch(self, values: np.ndarray) -> None:
        """Account a ``(n, warp_size)`` matrix of full register values.

        Both schemes run as whole-matrix kernels: the byte-wise prefix
        length (:func:`prefix_bytes_batch`) and the BDI mode
        (:func:`bdi_modes`) of every row.
        """
        if values.shape[0] == 0:
            return
        self.registers_seen += values.shape[0]
        encs = prefix_bytes_batch(values)
        for enc, count in zip(*np.unique(encs, return_counts=True)):
            self.enc_histogram[int(enc)] += int(count)
            self.ours_total_bits += int(count) * compressed_bits(
                int(enc), self.warp_size
            )
        modes = bdi_modes(values)
        for code, count in zip(*np.unique(modes, return_counts=True)):
            mode = BDI_MODES[code]
            self.bdi_histogram[mode] += int(count)
            self.bdi_total_bits += int(count) * mode.total_bits(self.warp_size)
        self.uncompressed_total_bits += values.shape[0] * self.warp_size * 32


def compare_trace(trace: ColumnarTrace) -> CompressionComparison:
    """Run the ours-vs-BDI comparison over every register write in a trace.

    Selects the full-mask write rows of the columnar trace with array
    ops and aggregates them in one
    :meth:`~CompressionComparison.observe_batch` call.  Divergent writes
    are skipped — neither scheme compresses them (Section 3.3 for ours;
    Warped-Compression similarly disables compression under partial
    masks).
    """
    comparison = CompressionComparison(warp_size=trace.warp_size)
    full_mask = np.uint64((1 << trace.warp_size) - 1)
    full_writes = (trace.values_index >= 0) & (trace.masks == full_mask)
    rows = trace.values_index[full_writes]
    comparison.observe_batch(
        np.ascontiguousarray(trace.values[rows], dtype=np.uint32)
    )
    return comparison
