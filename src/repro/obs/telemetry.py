"""Process-local telemetry registry: counters, histograms, gauges, spans.

One :class:`Telemetry` instance is a self-contained metrics registry:

* **counters** — monotonically growing numbers keyed by metric name
  plus a (sorted) label set, e.g. ``scalar_class{class="alu"}``;
* **histograms** — discrete value -> count maps per (name, labels),
  suited to the pipeline's small-domain distributions (instructions
  per warp, reconvergence-stack depth);
* **gauges** — point-in-time levels (peak RSS, bytes in flight) with
  high-water-mark merge semantics: :meth:`Telemetry.gauge_max` keeps
  the largest value seen and :meth:`Telemetry.merge` folds gauges by
  max, so a worker pool reports fleet-wide peaks;
* **spans** — nestable wall-clock intervals carrying a process id and
  a logical thread id.

A registry is written out as one Chrome trace-event file
(:mod:`repro.obs.chrome_trace`): spans become complete events, and
each counter, gauge or histogram name one counter event.

The module also owns the *process-global* instance used by the
instrumented pipeline.  It defaults to :data:`NULL_TELEMETRY`, a
subclass whose every operation is a no-op and whose ``enabled`` flag is
False — instrumentation sites hoist one ``get_telemetry().enabled``
check outside their hot loops, so a disabled registry costs one
attribute read per warp or pipeline stage, not per instruction
(guarded by ``tests/obs/test_overhead.py``).

Registries merge: :meth:`Telemetry.snapshot` produces a plain-builtins
payload that travels through pickle/JSON across process boundaries and
:meth:`Telemetry.merge` folds it back, which is how the experiment
runner's pool workers report back to the parent.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "LabelKey",
    "SpanEvent",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
]

#: Canonical label representation: sorted (key, value-as-str) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


@dataclass(slots=True)
class SpanEvent:
    """One finished wall-clock interval.

    ``ts_us`` is microseconds since the Unix epoch (wall clock), so
    spans recorded by different worker processes share one timeline;
    ``pid``/``tid`` pick the Chrome-trace row the span renders on.
    """

    name: str
    cat: str
    ts_us: int
    dur_us: int
    pid: int
    tid: int
    args: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanEvent":
        return cls(
            name=payload["name"],
            cat=payload.get("cat", ""),
            ts_us=int(payload["ts_us"]),
            dur_us=int(payload["dur_us"]),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            args=dict(payload.get("args", {})),
        )


class _Span:
    """Context manager recording one span into a registry."""

    __slots__ = ("_telemetry", "_name", "_cat", "_tid", "_args", "_started")

    def __init__(self, telemetry: "Telemetry", name: str, cat: str, tid: int | None, args: dict):
        self._telemetry = telemetry
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        ended = time.perf_counter()
        telemetry = self._telemetry
        ts_us = int((telemetry._epoch + self._started) * 1e6)
        dur_us = max(0, int((ended - self._started) * 1e6))
        tid = self._tid if self._tid is not None else threading.get_ident() % 1_000_000
        telemetry.spans.append(
            SpanEvent(
                name=self._name,
                cat=self._cat,
                ts_us=ts_us,
                dur_us=dur_us,
                pid=os.getpid(),
                tid=tid,
                args=self._args,
            )
        )


class _NullSpan:
    """Reusable no-op context manager (shared; carries no state)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """A process-local metrics registry, read at the end of a run via
    :meth:`snapshot` or :func:`~repro.obs.chrome_trace.chrome_trace`."""

    enabled = True

    def __init__(self):
        self.counters: dict[tuple[str, LabelKey], float] = {}
        self.histograms: dict[tuple[str, LabelKey], dict[float, int]] = {}
        self.gauges: dict[tuple[str, LabelKey], float] = {}
        self.spans: list[SpanEvent] = []
        # Anchor perf_counter to the wall clock once, so span
        # timestamps are epoch-based and comparable across processes.
        self._epoch = time.time() - time.perf_counter()

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` to a (labelled) counter."""
        key = (name, _label_key(labels))
        self.counters[key] = self.counters.get(key, 0) + amount

    def observe(self, name: str, value: float, count: int = 1, **labels: Any) -> None:
        """Record ``count`` observations of ``value`` in a histogram."""
        bucket = self.histograms.setdefault((name, _label_key(labels)), {})
        bucket[value] = bucket.get(value, 0) + count

    def gauge_max(self, name: str, value: float, **labels: Any) -> None:
        """Raise a (labelled) gauge to ``value`` if it is higher.

        High-water-mark semantics (peak RSS, peak bytes in flight):
        recording sites call this freely and the gauge keeps the
        maximum ever seen; :meth:`merge` folds gauges with the same
        max rule, so a pool of workers reports the fleet-wide peak.
        """
        key = (name, _label_key(labels))
        current = self.gauges.get(key)
        if current is None or value > current:
            self.gauges[key] = value

    def span(self, name: str, cat: str = "", tid: int | None = None, **args: Any):
        """Nestable wall-clock span (use as a context manager)."""
        return _Span(self, name, cat, tid, args)

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        return self.counters.get((name, _label_key(labels)), 0)

    def counters_named(self, name: str) -> dict[LabelKey, float]:
        """All label sets (and values) recorded under one counter name."""
        return {
            labels: value
            for (metric, labels), value in self.counters.items()
            if metric == name
        }

    def histogram(self, name: str, **labels: Any) -> dict[float, int]:
        return dict(self.histograms.get((name, _label_key(labels)), {}))

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        return self.gauges.get((name, _label_key(labels)))

    # ------------------------------------------------------------------
    # Cross-process plumbing.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-builtins payload for pickling across processes."""
        return {
            "counters": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in self.counters.items()
            ],
            "histograms": [
                [name, [list(pair) for pair in labels], sorted(bucket.items())]
                for (name, labels), bucket in self.histograms.items()
            ],
            "gauges": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in self.gauges.items()
            ],
            "spans": [span.to_dict() for span in self.spans],
        }

    def merge(self, other: "Telemetry | dict | None") -> None:
        """Fold another registry (or its :meth:`snapshot`) into this one."""
        if other is None:
            return
        if isinstance(other, Telemetry):
            other = other.snapshot()
        for name, labels, value in other.get("counters", ()):
            key = (name, tuple((str(k), str(v)) for k, v in labels))
            self.counters[key] = self.counters.get(key, 0) + value
        for name, labels, items in other.get("histograms", ()):
            key = (name, tuple((str(k), str(v)) for k, v in labels))
            bucket = self.histograms.setdefault(key, {})
            for value, count in items:
                bucket[value] = bucket.get(value, 0) + count
        for name, labels, value in other.get("gauges", ()):
            key = (name, tuple((str(k), str(v)) for k, v in labels))
            current = self.gauges.get(key)
            if current is None or value > current:
                self.gauges[key] = value
        for payload in other.get("spans", ()):
            self.spans.append(SpanEvent.from_dict(payload))


class NullTelemetry(Telemetry):
    """Disabled registry: every operation is a no-op.

    Instrumentation sites check :attr:`enabled` once and skip their
    aggregation passes entirely, so this class's methods are only a
    second line of defence; they still cost nothing but a call.
    """

    enabled = False

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, count: int = 1, **labels: Any) -> None:
        return None

    def gauge_max(self, name: str, value: float, **labels: Any) -> None:
        return None

    def span(self, name: str, cat: str = "", tid: int | None = None, **args: Any):
        return _NULL_SPAN

    def merge(self, other: "Telemetry | dict | None") -> None:
        return None


#: The shared disabled registry every process starts with.
NULL_TELEMETRY = NullTelemetry()

_ACTIVE: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-global registry (the null registry when disabled)."""
    return _ACTIVE


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install (or, with ``None``, disable) the process-global registry."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else NULL_TELEMETRY
    return _ACTIVE


class telemetry_session:
    """Context manager: install a registry for a scope, then restore.

    >>> with telemetry_session() as telemetry:
    ...     ...  # instrumented code records into ``telemetry``
    """

    def __init__(self, telemetry: Telemetry | None = None):
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._previous: Telemetry | None = None

    def __enter__(self) -> Telemetry:
        self._previous = get_telemetry()
        return set_telemetry(self._telemetry)

    def __exit__(self, *exc_info) -> None:
        set_telemetry(self._previous)
