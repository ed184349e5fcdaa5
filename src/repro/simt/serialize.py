"""Trace serialization: columnar traces as v5 cache entries.

Functional execution is the most expensive stage of the pipeline for
large launches; persisting traces lets analysis runs (figures,
architecture sweeps) reuse them across processes.  The on-disk layout
*is* the columnar form (:class:`~repro.simt.trace.ColumnarTrace`): flat
per-event arrays with offset tables for the ragged fields and one
``(n_rows, warp_size)`` matrix of destination snapshots, each stored as
one page-aligned bank of a v5 entry (:mod:`repro.experiments.store`).
The executor writes the same form, so a cache miss saves the trace
:func:`~repro.simt.executor.run_kernel` returned as it is, and a hit
needs no per-event reconstruction: :func:`load_columnar_v5` hands
memory-mapped arrays straight to the batch classifier.
"""

from __future__ import annotations

from pathlib import Path

from repro.simt.trace import ColumnarTrace

#: Bump whenever the columnar layout or its metadata schema changes;
#: cached traces with a different version are re-executed, never
#: re-interpreted.  Version 2 added the embedded content fingerprint.
#: Version 3 stores the columnar form directly: warp ids/lengths are
#: proper integer arrays, so the metadata stays O(1) regardless of warp
#: count.
_FORMAT_VERSION = 3

#: Array fields of :class:`ColumnarTrace`, in bank order.
_ARRAY_FIELDS = (
    "warp_ids",
    "warp_lengths",
    "opcode_ids",
    "dst",
    "masks",
    "blocks",
    "varying",
    "scalar_nonreg",
    "src_offsets",
    "src_flat",
    "values_index",
    "values",
    "addr_index",
    "addresses",
)


def save_columnar_v5(
    columnar: ColumnarTrace,
    cache_dir: str | Path,
    stem: str,
    fingerprint: str,
) -> None:
    """Write a columnar trace as a v5 manifest + page-aligned banks.

    Nothing is compressed: each array lands as its own ``.npy`` bank so
    :func:`load_columnar_v5` can hand back read-only memory-mapped
    views instead of decompressed copies.  The fingerprint lives in the
    manifest, so staleness is decided without opening a single bank.
    """
    from repro.experiments import store

    store.store_entry(
        cache_dir,
        stem,
        fingerprint=fingerprint,
        kind="trace",
        meta={
            "format_version": _FORMAT_VERSION,
            "kernel_name": columnar.kernel_name,
            "warp_size": columnar.warp_size,
        },
        arrays={name: getattr(columnar, name) for name in _ARRAY_FIELDS},
    )


def load_columnar_v5(
    cache_dir: str | Path,
    stem: str,
    expected_fingerprint: str | None = None,
):
    """Read a v5 trace entry; returns ``(columnar, status, entry)``.

    ``status`` follows :func:`repro.experiments.store.load_entry`
    (``hit`` / ``absent`` / ``stale`` / ``corrupt``); on anything but a
    hit the result is ``(None, status, None)`` and callers re-execute.
    A manifest of another format version, or whose warp lengths do not
    sum to its event count, is ``corrupt``.  On a hit the columnar
    arrays are read-only mmap views; ``entry`` carries the
    ``bytes_mapped`` / ``bytes_deserialized`` transport counters.
    """
    from repro.experiments import store

    entry, status = store.load_entry(cache_dir, stem, expected_fingerprint)
    if entry is None:
        return None, status, None
    meta = entry.meta
    if (
        entry.kind != "trace"
        or meta.get("format_version") != _FORMAT_VERSION
        or set(entry.arrays) != set(_ARRAY_FIELDS)
    ):
        return None, "corrupt", None
    columnar = ColumnarTrace(
        kernel_name=meta["kernel_name"],
        warp_size=meta["warp_size"],
        **{name: entry.arrays[name] for name in _ARRAY_FIELDS},
    )
    if int(columnar.warp_lengths.sum()) != columnar.num_events:
        return None, "corrupt", None
    return columnar, "hit", entry
