"""Event sink for the telemetry registry.

A sink receives one dict per finished span (and per explicit
:meth:`~repro.obs.telemetry.Telemetry.event`) as it happens — a live
stream, unlike the pull-style counter/histogram exporters.  The
registry needs only ``emit(event)`` and ``close()``;
:class:`JsonlSink` writes one JSON object per line, append-friendly
and trivially greppable — the ``repro profile --events-out`` backend.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


class JsonlSink:
    """Streams events as JSON Lines to a path or open handle."""

    def __init__(self, target: str | Path | IO[str]):
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        self.emitted = 0

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True, default=str))
        self._handle.write("\n")
        self.emitted += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
