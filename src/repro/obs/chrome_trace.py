"""Chrome trace-event export: the one telemetry file a run writes.

Produces the JSON object format consumed by Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer:

* every recorded span becomes one complete (``"ph": "X"``) event with
  microsecond timestamps, and metadata events name each process row
  after its role (parent vs. pool worker), so a parallel run renders
  as one row per worker with the per-stage spans showing true
  concurrency;
* every counter, gauge and histogram of the registry becomes a counter
  (``"ph": "C"``) event: one per metric name, at the end of the trace
  on the parent process row, with one series per label set
  (``"value"`` when unlabelled).  A histogram's series are its observed
  values (``value=<v>`` after any labels), each carrying its count;
* optional counter-track ``samples`` (the flight recorder's interval
  series, :meth:`repro.obs.timeline.FlightRecorder.counter_samples`)
  become counter events at their own timestamps.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from pathlib import Path
from typing import Iterable

from repro.obs.telemetry import LabelKey, Telemetry

#: Trace-viewer sort hint: the parent process row first.
_PARENT_SORT_INDEX = 0
_WORKER_SORT_INDEX = 1

#: One counter-track sample: (track name, pid, timestamp in µs, series).
Sample = tuple[str, int, int, dict[str, float]]


def _series_key(labels: LabelKey) -> str:
    return ",".join(f"{key}={value}" for key, value in labels) or "value"


def _metric_series(telemetry: Telemetry) -> dict[str, dict[str, float]]:
    """Every counter, gauge and histogram as name -> series -> value."""
    series: dict[str, dict[str, float]] = {}
    for (name, labels), value in chain(
        sorted(telemetry.counters.items()), sorted(telemetry.gauges.items())
    ):
        series.setdefault(name, {})[_series_key(labels)] = value
    for (name, labels), bucket in sorted(telemetry.histograms.items()):
        for observed, count in sorted(bucket.items()):
            key = _series_key(labels + (("value", str(observed)),))
            series.setdefault(name, {})[key] = count
    return series


def chrome_trace(
    telemetry: Telemetry,
    parent_pid: int | None = None,
    process_names: dict[int, str] | None = None,
    thread_names: dict[tuple[int, int], str] | None = None,
    samples: Iterable[Sample] = (),
) -> dict:
    """Render a registry as a Chrome trace-event JSON object.

    Timestamps are rebased to the earliest span or sample so the viewer
    opens at t=0 rather than at the Unix epoch.  ``parent_pid``
    (default: the calling process, which is where pool-worker snapshots
    merge) labels that process "parent" and every other pid "worker";
    the metric counter events go on its row.

    ``process_names`` (pid -> label) overrides the role-based process
    naming, and ``thread_names`` ((pid, tid) -> label) names individual
    rows — this is how the flight recorder's per-SM/per-warp/
    per-scheduler timelines get their Perfetto labels (see
    :meth:`repro.obs.timeline.FlightRecorder.chrome_metadata`).
    """
    spans = telemetry.spans
    samples = list(samples)
    origin = min(
        chain((span.ts_us for span in spans), (sample[2] for sample in samples)),
        default=0,
    )
    end = max(
        chain(
            (span.ts_us + span.dur_us for span in spans),
            (sample[2] for sample in samples),
        ),
        default=origin,
    )
    if parent_pid is None:
        parent_pid = os.getpid()
    process_names = process_names or {}
    thread_names = thread_names or {}
    events: list[dict] = []
    seen_pids: set[int] = set()
    seen_tids: set[tuple[int, int]] = set()

    def name_process(pid: int) -> None:
        if pid in seen_pids:
            return
        seen_pids.add(pid)
        if pid in process_names:
            label = process_names[pid]
        else:
            role = "parent" if pid == parent_pid else "worker"
            label = f"repro {role} (pid {pid})"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "sort_index": _PARENT_SORT_INDEX
                    if pid == parent_pid
                    else _WORKER_SORT_INDEX
                },
            }
        )

    for span in spans:
        name_process(span.pid)
        key = (span.pid, span.tid)
        if key in thread_names and key not in seen_tids:
            seen_tids.add(key)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": {"name": thread_names[key]},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": {"sort_index": span.tid},
                }
            )
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "default",
                "ph": "X",
                "ts": span.ts_us - origin,
                "dur": span.dur_us,
                "pid": span.pid,
                "tid": span.tid,
                "args": span.args,
            }
        )
    metrics = [
        (name, parent_pid, end, values)
        for name, values in _metric_series(telemetry).items()
    ]
    for name, pid, ts_us, values in samples + metrics:
        name_process(pid)
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": ts_us - origin,
                "pid": pid,
                "tid": 0,
                "args": values,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    telemetry: Telemetry,
    path: str | Path,
    parent_pid: int | None = None,
    process_names: dict[int, str] | None = None,
    thread_names: dict[tuple[int, int], str] | None = None,
    samples: Iterable[Sample] = (),
) -> Path:
    """Write the Chrome trace JSON to ``path`` and return it."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            chrome_trace(
                telemetry,
                parent_pid=parent_pid,
                process_names=process_names,
                thread_names=thread_names,
                samples=samples,
            ),
            handle,
        )
        handle.write("\n")
    return path
