"""One-file cache store: each entry is a small pickled object.

Every cache entry — a benchmark's figure ``summary`` or a (benchmark,
architecture) timing and power ``result`` — is one file,
``<stem>.v6.pkl``, holding two pickles back to back:

1. the header ``(layout version, kind, fingerprint)``;
2. the payload.

A loader reads the header first, so a stale or foreign entry is
rejected without unpickling its payload.  Anything that does not read
back as a header of this layout followed by exactly one payload —
truncation, garbage, another layout version, another kind — is
``corrupt``; callers recompute and overwrite it.

**Write discipline** (crash-safe, reader-safe): an entry is written to
``<file>.<pid>.tmp`` and moved into place with ``os.replace``.  A
reader sees either the old file or the new one, never a partial write;
two processes racing to write the same entry both land a complete file
(the content is identical by construction).  A writer that dies before
the replace leaves ``*.tmp`` debris, which :func:`sweep_orphans`
reclaims once it is older than an age gate, so a live writer's file is
never swept from under it.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any

#: Version of the entry layout.  Entries written by a different layout
#: are ``corrupt`` to the loader (the runner recomputes them); files of
#: older layouts do not even match :data:`ENTRY_SUFFIX`.
CACHE_LAYOUT_VERSION = 6

#: Entry filename suffix: ``<stem>.v6.pkl``.
ENTRY_SUFFIX = f".v{CACHE_LAYOUT_VERSION}.pkl"

#: Default age (seconds) below which :func:`sweep_orphans` leaves
#: ``*.tmp`` files alone — they may belong to a writer that is
#: mid-flight right now.
TMP_SWEEP_AGE_SECONDS = 600.0


def entry_path(cache_dir: str | Path, stem: str) -> Path:
    return Path(cache_dir) / f"{stem}{ENTRY_SUFFIX}"


def store_entry(
    cache_dir: str | Path, stem: str, *, fingerprint: str, kind: str, payload: Any
) -> Path:
    """Persist one cache entry atomically; returns its path.

    A failed write (an unpicklable payload, a full disk, an interrupt)
    removes its temp file and re-raises; the entry already on disk, if
    any, is left as it was.
    """
    final = entry_path(cache_dir, stem)
    tmp = final.with_name(f"{final.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(
                (CACHE_LAYOUT_VERSION, kind, fingerprint),
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return final


def _read_header(handle) -> tuple[str, str] | None:
    """``(kind, fingerprint)`` of an open entry, ``None`` if damaged."""
    try:
        header = pickle.load(handle)
    except Exception:
        return None
    if (
        not isinstance(header, tuple)
        or len(header) != 3
        or header[0] != CACHE_LAYOUT_VERSION
        or not all(isinstance(part, str) for part in header[1:])
    ):
        return None
    return header[1], header[2]


def load_entry(
    cache_dir: str | Path, stem: str, fingerprint: str, kind: str
) -> tuple[Any, str]:
    """Read one entry; returns ``(payload, status)``.

    ``status`` is ``"hit"`` (payload returned), ``"absent"`` (no
    file), ``"stale"`` (another fingerprint — the payload is never
    unpickled) or ``"corrupt"`` (anything else).  On anything but a hit
    the payload is ``None``.  Nothing raises.
    """
    try:
        handle = open(entry_path(cache_dir, stem), "rb")
    except FileNotFoundError:
        return None, "absent"
    except OSError:
        return None, "corrupt"
    with handle:
        header = _read_header(handle)
        if header is None or header[0] != kind:
            return None, "corrupt"
        if header[1] != fingerprint:
            return None, "stale"
        try:
            payload = pickle.load(handle)
        except Exception:
            return None, "corrupt"
        if handle.read(1):
            return None, "corrupt"
    return payload, "hit"


def _peek(path: Path) -> tuple[str, str] | None:
    """``(kind, fingerprint)`` of the entry file at ``path``, if readable."""
    try:
        with open(path, "rb") as handle:
            return _read_header(handle)
    except OSError:
        return None


def entry_is_current(
    cache_dir: str | Path, stem: str, fingerprint: str, kind: str
) -> bool:
    """Whether an entry's header matches, without reading its payload."""
    return _peek(entry_path(cache_dir, stem)) == (kind, fingerprint)


# ----------------------------------------------------------------------
# Garbage collection and inventory.
# ----------------------------------------------------------------------
def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def sweep_orphans(
    cache_dir: str | Path,
    age_seconds: float = TMP_SWEEP_AGE_SECONDS,
    now: float | None = None,
) -> tuple[int, int]:
    """Remove ``*.tmp`` debris older than ``age_seconds``.

    Returns ``(files removed, bytes freed)``.  The age gate keeps a
    live writer's in-flight file safe from a concurrent sweep.
    """
    cache_dir = Path(cache_dir)
    removed = freed = 0
    if not cache_dir.is_dir():
        return removed, freed
    cutoff = (time.time() if now is None else now) - age_seconds
    for child in sorted(cache_dir.glob("*.tmp")):
        try:
            stat = child.stat()
            if stat.st_mtime > cutoff or not child.is_file():
                continue
            child.unlink()
        except OSError:
            continue
        removed += 1
        freed += stat.st_size
    return removed, freed


def scan_cache(cache_dir: str | Path) -> dict:
    """Inventory a cache directory: per-stage entry counts and bytes.

    Returns a JSON-ready dict: ``stages`` maps an entry kind
    (``summary``/``result``; ``unknown`` for a damaged entry, ``other``
    for files outside this layout) to ``{"entries": n, "bytes": b}``;
    ``orphans`` counts ``*.tmp`` debris still awaiting a sweep.
    """
    cache_dir = Path(cache_dir)
    stages: dict[str, dict[str, int]] = {}
    orphans = {"tmp_files": 0, "tmp_bytes": 0}
    total = 0
    children = sorted(cache_dir.iterdir()) if cache_dir.is_dir() else []
    for child in children:
        name = child.name
        size = _file_size(child)
        total += size
        if name.endswith(".tmp") and child.is_file():
            orphans["tmp_files"] += 1
            orphans["tmp_bytes"] += size
            continue
        kind = "other"
        if name.endswith(ENTRY_SUFFIX):
            header = _peek(child)
            kind = header[0] if header is not None else "unknown"
        slot = stages.setdefault(kind, {"entries": 0, "bytes": 0})
        slot["entries"] += 1
        slot["bytes"] += size
    return {
        "cache_dir": str(cache_dir),
        "stages": dict(sorted(stages.items())),
        "orphans": orphans,
        "total_bytes": total,
    }
