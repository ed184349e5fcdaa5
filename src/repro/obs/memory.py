"""Process-memory observables: peak RSS and bytes in flight.

Two gauges back the streaming pipeline's memory story
(:mod:`repro.experiments.streaming`):

* ``peak_rss_bytes`` — the OS-reported resident-set high-water mark of
  a process (``resource.getrusage``), one series per process.  The
  unlabelled series is the recording (parent) process's own; each pool
  worker returns its peak as ``peak_rss_bytes{pid=<worker pid>}``
  (:mod:`repro.experiments.parallel`), never in the unlabelled series.
  Merging keeps the max per label set, so a worker that ran several
  tasks reports its own high-water mark.  Parent and workers are
  resident together, so a parallel run's footprint is bounded by the
  sum of the series, not by their maximum (peaks need not coincide,
  and forked workers share pages with the parent).
* ``bytes_in_flight`` — the pipeline-reported total of live chunk
  arrays (trace slice + classified + per-architecture processed
  columns) at each chunk boundary.  Unlike RSS this is exact and
  allocator-independent, so tests can assert streaming really bounds
  the working set without depending on malloc behaviour.

Both are plain :meth:`repro.obs.telemetry.Telemetry.gauge_max` gauges
and surface through ``--stats-json`` and, as counter events, the
Chrome trace.
"""

from __future__ import annotations

import resource
import sys

from repro.obs.telemetry import Telemetry, get_telemetry

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark, in bytes."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int(usage.ru_maxrss) * _RU_MAXRSS_SCALE


def record_peak_rss(telemetry: Telemetry | None = None) -> int:
    """Sample peak RSS into the ``peak_rss_bytes`` gauge; returns it."""
    value = peak_rss_bytes()
    (telemetry or get_telemetry()).gauge_max("peak_rss_bytes", value)
    return value


def record_bytes_in_flight(live_bytes: int, telemetry: Telemetry | None = None) -> None:
    """Raise the ``bytes_in_flight`` gauge to ``live_bytes`` if higher."""
    (telemetry or get_telemetry()).gauge_max("bytes_in_flight", live_bytes)
