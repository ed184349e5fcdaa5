"""Observability: telemetry registry, sinks and exporters.

The :class:`~repro.obs.telemetry.Telemetry` registry collects counters,
histograms and nestable spans from the instrumented pipeline
(:mod:`repro.simt.executor`, :mod:`repro.scalar.tracker`,
:mod:`repro.power.accounting`, :mod:`repro.experiments.runner`, ...);
the exporters turn a finished registry into a Chrome trace-event file
(:mod:`repro.obs.chrome_trace`, loadable in Perfetto), a Prometheus
text exposition (:mod:`repro.obs.prometheus`) or a human-readable
summary (:mod:`repro.obs.summary`).  The process-global registry
defaults to a disabled null implementation with near-zero overhead;
``repro profile`` and the ``--trace-out``/``--metrics-out`` CLI flags
install an enabled one.
"""

from repro.obs.chrome_trace import chrome_trace, write_chrome_trace
from repro.obs.prometheus import prometheus_text, write_prometheus
from repro.obs.sinks import JsonlSink
from repro.obs.summary import summary_table
from repro.obs.timeline import (
    DEFAULT_CAPACITY,
    SCHEDULER_TID_BASE,
    FlightRecorder,
    stalls_to_telemetry,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    SpanEvent,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "SpanEvent",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "JsonlSink",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "summary_table",
    "DEFAULT_CAPACITY",
    "SCHEDULER_TID_BASE",
    "FlightRecorder",
    "stalls_to_telemetry",
]
