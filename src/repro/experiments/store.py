"""v5 zero-copy cache store: JSON manifests + page-aligned ``.npy`` banks.

The v3/v4 cache paid full (de)serialization on every *hit*: traces came
out of compressed ``.npz`` archives and the stage sidecars were
whole-object pickles, re-read independently by every ``run_matrix``
worker.  The v5 layout stores the big arrays of a cache entry as
uncompressed, page-aligned ``.npy`` files — *banks* — plus one small
JSON *manifest* per entry:

* ``<stem>.v5.json`` — the manifest: layout version, content
  fingerprint, per-array schema (name, dtype, shape, file, nbytes) and
  scalar metadata.  Staleness checks read only this file; a stale or
  foreign entry is rejected without touching a single payload byte.
* ``<stem>.<fingerprint>.v5/`` — the bank directory named after the
  manifest's fingerprint, one ``.npy`` file per array (data offset
  padded to :data:`PAGE_ALIGN`) plus one ``.pkl`` file per small
  pickled object (the timing and power results of a ``result`` entry).

A cache hit maps each bank at the data offset its manifest records:
readers get read-only memory-mapped views — the OS pages data in on
demand and shares the page cache between every process mapping the same
entry, so one cache directory serves many workers without a copy.  The
read-only mapping is also the mutation-safety contract: any engine that
tries to write into a mapped column raises immediately instead of
silently corrupting the shared store (copy-on-write must be explicit).

**Write discipline** (crash-safe, reader-safe):

1. banks are written into ``<bank_dir>.<pid>.tmp/`` and atomically
   ``os.rename``-ed into place — a concurrent writer of the *same*
   fingerprint loses the rename race and discards its temp dir (the
   content is identical by construction);
2. the manifest is written to a temp file and ``os.replace``-d last.

Because bank directories are fingerprint-named, replacing an entry
writes *new* banks and swaps only the manifest: a reader still holding
memory-mapped views of the old banks keeps reading consistent data
(POSIX keeps unlinked-but-mapped pages alive).  Old banks become
orphans and are reclaimed by :func:`sweep_orphans`, which also clears
``*.tmp`` debris left by crashed writers; both sweeps are age-gated so
a live writer's work-in-progress is never swept from under it.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import pickle
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Version of the manifest/bank cache layout.  Entries written by a
#: different layout are ignored (the reader recomputes them).
CACHE_LAYOUT_VERSION = 5

#: Bank ``.npy`` headers are padded so array data starts on a page
#: boundary — mmap-friendly and safe for direct I/O.
PAGE_ALIGN = 4096

#: Manifest filename suffix: ``<stem>.v5.json``.
MANIFEST_SUFFIX = ".v5.json"

#: Bank directory suffix: ``<stem>.<fingerprint>.v5``.
BANK_SUFFIX = ".v5"

#: Default age (seconds) below which :func:`sweep_orphans` leaves
#: ``*.tmp`` files and unreferenced bank directories alone — they may
#: belong to a writer that is mid-flight right now.
TMP_SWEEP_AGE_SECONDS = 600.0

_BANK_DIR_RE = re.compile(r"^(?P<stem>.+)\.(?P<fp>[0-9a-f]{8,64})\.v5$")


class StoreError(Exception):
    """Internal signal for a damaged v5 entry (never escapes loaders)."""


# ----------------------------------------------------------------------
# Page-aligned .npy banks.
# ----------------------------------------------------------------------
def write_aligned_npy(
    path: str | Path, array: np.ndarray, align: int = PAGE_ALIGN
) -> tuple[int, int]:
    """Write ``array`` as a spec-compliant ``.npy`` whose data section
    starts at a multiple of ``align`` bytes.  Returns ``(payload_bytes,
    data_offset)``.

    The format's header is free-form ASCII padded with spaces and
    terminated by a newline, so any padding width is valid: ``np.load``
    (mmap or not) reads these files like any other ``.npy``.  The
    returned data offset goes into the manifest, so the hit path can
    map the payload directly without re-parsing the header.
    """
    arr = np.ascontiguousarray(array)
    descr = np.lib.format.dtype_to_descr(arr.dtype)
    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        descr,
        tuple(int(dim) for dim in arr.shape),
    )
    # magic(6) + version(2) + header-length field(2) precede the header.
    prefix = 6 + 2 + 2
    pad = (-(prefix + len(header) + 1)) % align
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    if len(header_bytes) > 0xFFFF:
        raise StoreError(f"npy header too large for version 1.0: {path}")
    with open(path, "wb") as handle:
        handle.write(b"\x93NUMPY\x01\x00")
        handle.write(len(header_bytes).to_bytes(2, "little"))
        handle.write(header_bytes)
        arr.tofile(handle)
    return int(arr.nbytes), prefix + len(header_bytes)


# ----------------------------------------------------------------------
# Entry write path.
# ----------------------------------------------------------------------
def manifest_path(cache_dir: Path, stem: str) -> Path:
    return Path(cache_dir) / f"{stem}{MANIFEST_SUFFIX}"


def bank_dir_name(stem: str, fingerprint: str) -> str:
    return f"{stem}.{fingerprint}{BANK_SUFFIX}"


def store_entry(
    cache_dir: str | Path,
    stem: str,
    *,
    fingerprint: str,
    kind: str,
    meta: dict[str, Any] | None = None,
    arrays: dict[str, np.ndarray] | None = None,
    objects: dict[str, Any] | None = None,
) -> Path:
    """Persist one v5 cache entry; returns the manifest path.

    ``arrays`` become page-aligned ``.npy`` banks (zero-size arrays are
    recorded in the manifest only), ``objects`` become pickle banks for
    small structured payloads (timing/power results).  Writes follow
    the write-then-rename discipline described in the module docstring.
    """
    cache_dir = Path(cache_dir)
    arrays = arrays or {}
    objects = objects or {}
    bank_name = bank_dir_name(stem, fingerprint)
    final_dir = cache_dir / bank_name
    tmp_dir = cache_dir / f"{bank_name}.{os.getpid()}.tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True)

    array_entries = []
    for name, array in arrays.items():
        entry = {
            "name": name,
            "dtype": np.lib.format.dtype_to_descr(np.asarray(array).dtype),
            "shape": [int(dim) for dim in np.asarray(array).shape],
        }
        if np.asarray(array).size == 0:
            entry["file"] = None
            entry["nbytes"] = 0
        else:
            entry["file"] = f"{name}.npy"
            entry["nbytes"], entry["offset"] = write_aligned_npy(
                tmp_dir / f"{name}.npy", array
            )
        array_entries.append(entry)
    object_entries = []
    for name, payload in objects.items():
        filename = f"{name}.pkl"
        with open(tmp_dir / filename, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        object_entries.append({"name": name, "file": filename})

    if final_dir.exists():
        # Another writer already landed banks for this exact
        # fingerprint; the content is identical by construction.
        shutil.rmtree(tmp_dir, ignore_errors=True)
    else:
        try:
            os.rename(tmp_dir, final_dir)
        except OSError:
            if final_dir.exists():  # lost the rename race — same story
                shutil.rmtree(tmp_dir, ignore_errors=True)
            else:
                raise

    manifest = {
        "layout": CACHE_LAYOUT_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "bank_dir": bank_name,
        "meta": meta or {},
        "arrays": array_entries,
        "objects": object_entries,
    }
    final_manifest = manifest_path(cache_dir, stem)
    tmp_manifest = cache_dir / f"{final_manifest.name}.{os.getpid()}.tmp"
    with open(tmp_manifest, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_manifest, final_manifest)
    return final_manifest


# ----------------------------------------------------------------------
# Entry read path.
# ----------------------------------------------------------------------
@dataclass
class LoadedEntry:
    """One v5 entry opened for reading.

    ``arrays`` are read-only memory maps of the banks.
    ``bytes_mapped`` / ``bytes_deserialized`` feed the transport
    counters: mapped bytes are *virtual* — the OS pages them in lazily,
    and only the pickled object banks are deserialized.
    """

    kind: str
    fingerprint: str
    meta: dict[str, Any]
    arrays: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    objects: dict[str, Any] = field(repr=False, default_factory=dict)
    bytes_mapped: int = 0
    bytes_deserialized: int = 0


def peek_manifest(cache_dir: str | Path, stem: str) -> dict | None:
    """Read an entry's manifest without opening any bank.

    Returns the manifest dict, or ``None`` when absent/damaged/foreign
    layout (a manifest without a string ``fingerprint`` and
    ``bank_dir`` counts as damaged).  This is the O(1) staleness probe:
    the fingerprint lives in the manifest, so deciding hit-vs-stale
    never deserializes payloads.
    """
    path = manifest_path(Path(cache_dir), stem)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("layout") != CACHE_LAYOUT_VERSION
        or not isinstance(manifest.get("fingerprint"), str)
        or not isinstance(manifest.get("bank_dir"), str)
    ):
        return None
    return manifest


def load_entry(
    cache_dir: str | Path,
    stem: str,
    expected_fingerprint: str | None = None,
) -> tuple[LoadedEntry | None, str]:
    """Open one v5 entry; returns ``(entry, status)``.

    ``status`` is ``"hit"`` (entry returned), ``"absent"`` (no v5
    manifest), ``"stale"`` (fingerprint mismatch — payloads untouched)
    or ``"corrupt"`` (manifest or banks damaged, including a non-empty
    bank spec without the data ``offset`` every write records).
    Callers recover by recomputing; nothing raises.
    """
    cache_dir = Path(cache_dir)
    if not manifest_path(cache_dir, stem).exists():
        return None, "absent"
    manifest = peek_manifest(cache_dir, stem)
    if manifest is None:
        return None, "corrupt"
    if (
        expected_fingerprint is not None
        and manifest["fingerprint"] != expected_fingerprint
    ):
        return None, "stale"
    bank_dir = cache_dir / manifest["bank_dir"]
    entry = LoadedEntry(
        kind=manifest.get("kind", ""),
        fingerprint=manifest["fingerprint"],
        meta=manifest.get("meta", {}),
    )
    try:
        for spec in manifest.get("arrays", ()):
            name = spec["name"]
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            if spec["file"] is None:
                array = np.empty(shape, dtype=dtype)
            else:
                # The manifest records where the payload starts, so the
                # hit maps it directly — one open + one mmap per bank,
                # no ``.npy`` header re-parse (the header still exists
                # for np.load and external tools).
                offset = int(spec["offset"])
                nbytes = int(spec["nbytes"])
                with open(bank_dir / spec["file"], "rb") as handle:
                    buffer = _mmap.mmap(
                        handle.fileno(), 0, access=_mmap.ACCESS_READ
                    )
                if buffer.size() < offset + nbytes:
                    raise StoreError(
                        f"bank {spec['file']} truncated: {buffer.size()} "
                        f"< {offset + nbytes}"
                    )
                array = np.frombuffer(
                    buffer, dtype=dtype, count=int(np.prod(shape)),
                    offset=offset,
                ).reshape(shape)
                entry.bytes_mapped += int(array.nbytes)
            array.flags.writeable = False
            entry.arrays[name] = array
        for spec in manifest.get("objects", ()):
            path = bank_dir / spec["file"]
            entry.bytes_deserialized += path.stat().st_size
            with open(path, "rb") as handle:
                entry.objects[spec["name"]] = pickle.load(handle)
    except Exception:
        return None, "corrupt"
    return entry, "hit"


# ----------------------------------------------------------------------
# Garbage collection and inventory.
# ----------------------------------------------------------------------
@dataclass
class SweepStats:
    """What :func:`sweep_orphans` reclaimed."""

    tmp_files: int = 0
    orphan_bank_dirs: int = 0
    bytes_freed: int = 0


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        try:
            return path.stat().st_size
        except OSError:
            return 0
    total = 0
    for child in path.rglob("*"):
        try:
            if child.is_file():
                total += child.stat().st_size
        except OSError:
            continue
    return total


def sweep_orphans(
    cache_dir: str | Path,
    age_seconds: float = TMP_SWEEP_AGE_SECONDS,
    now: float | None = None,
) -> SweepStats:
    """Reclaim crashed-writer debris and superseded banks.

    Removes, when older than ``age_seconds``:

    * ``*.tmp`` files (manifests abandoned before their rename) and
      ``*.tmp`` bank directories;
    * fingerprint-named ``*.v5`` bank directories whose manifest is
      missing or now points at a different fingerprint (an entry
      replacement happened; any reader still mapping the old banks
      keeps its pages via POSIX unlink semantics).

    The age gate keeps a live writer's in-flight temp work and
    banks-renamed-before-manifest windows safe from concurrent sweeps.
    """
    cache_dir = Path(cache_dir)
    stats = SweepStats()
    if not cache_dir.is_dir():
        return stats
    cutoff = (time.time() if now is None else now) - age_seconds
    for child in sorted(cache_dir.iterdir()):
        name = child.name
        try:
            mtime = child.stat().st_mtime
        except OSError:
            continue
        if mtime > cutoff:
            continue
        if name.endswith(".tmp"):
            size = _tree_bytes(child)
            try:
                if child.is_dir():
                    shutil.rmtree(child)
                else:
                    child.unlink()
            except OSError:
                continue
            stats.tmp_files += 1
            stats.bytes_freed += size
            continue
        match = _BANK_DIR_RE.match(name)
        if match is None or not child.is_dir():
            continue
        manifest = peek_manifest(cache_dir, match.group("stem"))
        if manifest is not None and manifest["fingerprint"] == match.group("fp"):
            continue
        size = _tree_bytes(child)
        try:
            shutil.rmtree(child)
        except OSError:
            continue
        stats.orphan_bank_dirs += 1
        stats.bytes_freed += size
    return stats


def scan_cache(cache_dir: str | Path) -> dict:
    """Inventory a cache directory: per-stage entry counts and bytes.

    Returns a JSON-ready dict: ``stages`` maps a stage label (the v5
    kinds ``trace``/``ccols``/``result``, or ``other`` for
    files outside the v5 layout) to ``{"entries": n, "bytes": b}``;
    ``orphans`` counts ``*.tmp`` debris and unreferenced bank
    directories still awaiting a sweep.
    """
    cache_dir = Path(cache_dir)
    stages: dict[str, dict[str, int]] = {}
    orphans = {"tmp_files": 0, "tmp_bytes": 0, "bank_dirs": 0, "bank_bytes": 0}
    total = 0

    def bump(stage: str, entries: int, nbytes: int) -> None:
        slot = stages.setdefault(stage, {"entries": 0, "bytes": 0})
        slot["entries"] += entries
        slot["bytes"] += nbytes

    if not cache_dir.is_dir():
        return {"cache_dir": str(cache_dir), "stages": stages,
                "orphans": orphans, "total_bytes": 0}
    for child in sorted(cache_dir.iterdir()):
        name = child.name
        size = _tree_bytes(child)
        total += size
        if name.endswith(".tmp"):
            orphans["tmp_files"] += 1
            orphans["tmp_bytes"] += size
            continue
        if name.endswith(MANIFEST_SUFFIX):
            stem = name[: -len(MANIFEST_SUFFIX)]
            manifest = peek_manifest(cache_dir, stem)
            kind = manifest.get("kind", "unknown") if manifest else "unknown"
            # The manifest speaks for the whole entry; its banks are
            # accounted to the same stage below.
            bump(kind, 1, size)
            continue
        match = _BANK_DIR_RE.match(name)
        if match is not None and child.is_dir():
            manifest = peek_manifest(cache_dir, match.group("stem"))
            if manifest is None or manifest["fingerprint"] != match.group("fp"):
                orphans["bank_dirs"] += 1
                orphans["bank_bytes"] += size
            else:
                bump(manifest.get("kind", "unknown"), 0, size)
            continue
        bump("other", 1, size)
    return {
        "cache_dir": str(cache_dir),
        "stages": {k: dict(v) for k, v in sorted(stages.items())},
        "orphans": orphans,
        "total_bytes": total,
    }
