"""Whole-trace reassembly and exact comparison of column sets.

The differential suites compare a chunked run against the whole-trace
engines array for array: :func:`concat_classified_columns` and
:func:`concat_processed_columns` join per-chunk fragments back into
one column set, :func:`processed_columns_diff` names the fields on
which two processed-column sets differ, and
:func:`assert_tables_identical` compares two timing-op tables column
for column.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.scalar.columns import ClassifiedColumns, ProcessedColumns, _concat_offsets
from repro.timing.ops import TimingOpTable


def _concat_row_indexes(
    indexes: list[np.ndarray], row_counts: list[int]
) -> np.ndarray:
    """Concatenate per-chunk row-index columns, rebasing to the
    concatenated row matrix (``-1`` stays ``-1``)."""
    parts = []
    base = 0
    for index, rows in zip(indexes, row_counts):
        parts.append(np.where(index >= 0, index + base, -1).astype(np.int64))
        base += rows
    return (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    )


def concat_classified_columns(fragments: list[ClassifiedColumns]) -> ClassifiedColumns:
    """Reassemble whole-trace classified columns from chunk fragments.

    ``fragments`` are per-chunk outputs in stream order, each over a
    run of whole warps.  Warp-length, per-event and flat per-source
    arrays simply concatenate; offset/row-index tables are rebased.
    The differential suite uses this to compare a chunked run against
    the whole-trace engines array-for-array.
    """
    if not fragments:
        raise ValueError("concat_classified_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "masks", "active_lanes",
        "divergent", "blocks", "dst", "scalar_class_ids", "lo_half_exec",
        "hi_half_exec", "has_dst_enc", "needs_move", "dst_enc",
        "dst_enc_lo", "dst_enc_hi", "dst_is_scalar", "before_enc",
        "before_enc_lo", "before_enc_hi",
    )
    per_source = (
        "src_registers", "src_enc", "src_enc_lo", "src_enc_hi",
        "src_divergent", "src_scalar_for_read",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in ("warp_lengths",) + per_event + per_source
    }
    warp_size = fragments[0].warp_size
    address_rows = [
        f.addresses for f in fragments if f.addresses.shape[0]
    ]
    return ClassifiedColumns(
        warp_size=warp_size,
        src_offsets=_concat_offsets([f.src_offsets for f in fragments]),
        addr_index=_concat_row_indexes(
            [f.addr_index for f in fragments],
            [int(f.addresses.shape[0]) for f in fragments],
        ),
        addresses=(
            np.concatenate(address_rows)
            if address_rows
            else np.empty((0, warp_size), dtype=np.uint32)
        ),
        **merged,
    )


def concat_processed_columns(fragments: list[ProcessedColumns]) -> ProcessedColumns:
    """Reassemble whole-trace processed columns from chunk fragments
    (same contract as :func:`concat_classified_columns`)."""
    if not fragments:
        raise ValueError("concat_processed_columns needs >= 1 fragment")
    per_event = (
        "opcode_ids", "category_codes", "active_lanes", "scalar_executed",
        "lo_half_scalar", "hi_half_scalar", "exec_lanes",
        "extra_instructions", "compressor_ops", "decompressor_ops",
    )
    per_access = (
        "acc_kind_ids", "acc_registers", "acc_enc", "acc_enc_lo",
        "acc_enc_hi", "acc_half", "acc_masks", "acc_sidecar",
    )
    merged = {
        name: np.concatenate([getattr(f, name) for f in fragments])
        for name in ("warp_lengths",) + per_event + per_access
    }
    return ProcessedColumns(
        warp_size=fragments[0].warp_size,
        acc_offsets=_concat_offsets([f.acc_offsets for f in fragments]),
        **merged,
    )


def processed_columns_equal(a: ProcessedColumns, b: ProcessedColumns) -> bool:
    """Exact array-for-array equality of two processed-column sets."""
    return not processed_columns_diff(a, b)


def processed_columns_diff(a: ProcessedColumns, b: ProcessedColumns) -> list[str]:
    """Names of the fields on which two processed-column sets differ."""
    differing: list[str] = []
    if a.warp_size != b.warp_size:
        differing.append("warp_size")
    for name in (
        "warp_lengths",
        "opcode_ids",
        "category_codes",
        "active_lanes",
        "scalar_executed",
        "lo_half_scalar",
        "hi_half_scalar",
        "exec_lanes",
        "extra_instructions",
        "compressor_ops",
        "decompressor_ops",
        "acc_offsets",
        "acc_kind_ids",
        "acc_registers",
        "acc_enc",
        "acc_enc_lo",
        "acc_enc_hi",
        "acc_half",
        "acc_masks",
        "acc_sidecar",
    ):
        left = getattr(a, name)
        right = getattr(b, name)
        if left.shape != right.shape or not np.array_equal(left, right):
            differing.append(name)
    return differing


def assert_tables_identical(expected: TimingOpTable, actual: TimingOpTable) -> None:
    """Column-for-column equality (dtype and values) of two op tables."""
    for spec in dataclasses.fields(TimingOpTable):
        want, got = getattr(expected, spec.name), getattr(actual, spec.name)
        assert want.dtype == got.dtype, spec.name
        assert np.array_equal(want, got), spec.name
