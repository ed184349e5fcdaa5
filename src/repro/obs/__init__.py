"""Observability: the telemetry registry and its one file, a Chrome trace.

The :class:`~repro.obs.telemetry.Telemetry` registry collects counters,
gauges, histograms and nestable spans from the instrumented pipeline
(:mod:`repro.simt.executor`, :mod:`repro.scalar.batch`,
:mod:`repro.power.accounting`, :mod:`repro.experiments.runner`, ...);
:mod:`repro.obs.chrome_trace` writes a finished registry as one Chrome
trace-event file (loadable in Perfetto): spans as complete events and
every counter, gauge and histogram as a counter event.  The
process-global registry defaults to a disabled null implementation
with near-zero overhead; ``--trace-out`` on the experiment commands
installs an enabled one, and ``repro timeline --trace-out`` writes the
flight recorder's warp timelines, interval series and stall
attribution (:mod:`repro.obs.timeline`) to the same format.
"""

from repro.obs.chrome_trace import chrome_trace, write_chrome_trace
from repro.obs.timeline import (
    DEFAULT_CAPACITY,
    DEFAULT_INTERVAL_CYCLES,
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
    "chrome_trace",
    "write_chrome_trace",
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_CYCLES",
    "SCHEDULER_TID_BASE",
    "FlightRecorder",
    "stalls_to_telemetry",
]
