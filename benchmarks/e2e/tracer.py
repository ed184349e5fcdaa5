"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public entry point of each pipeline layer from the
outside: nothing under ``src/`` knows it exists.  Each wrapped call
records one span (name, layer, start, end, parent) in a list; the
per-layer ledger is computed from that list after the run, and the
spans are written out as a Chrome trace-event file Perfetto can open.

Only coarse entry points are wrapped -- per benchmark, per architecture
or per chunk.  Per-event hot functions (``ArchitectureView.process``,
``ClassifiedEvent.category``, ``mask_to_int``, ``bdi_compress``) run
10^5-10^6 times per run; wrapping them would distort the very times the
ledger reports, and their time already shows up as their caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import numbers
import os
import pkgutil
import sys
import time
from dataclasses import dataclass

#: Layer -> wrapped targets as ``(module:qualname, count_from)``.
#: ``count_from`` names where a call's event count is read: the first
#: positional argument (``"arg"``), the return value (``"result"``) or
#: nowhere (``None``, also for a call that converts what a sibling call
#: of its layer already counted).  A target that no longer exists is
#: reported under ``missing_targets`` rather than failing the run.
LAYERS: dict[str, tuple[tuple[str, str | None], ...]] = {
    "simt.execute": (("repro.simt.executor:run_kernel", "result"),),
    "simt.convert": (
        ("repro.simt.trace:KernelTrace.to_columnar", "result"),
        ("repro.simt.trace:ColumnarTrace.to_trace", "result"),
    ),
    "scalar.classify": (
        ("repro.scalar.batch:classify_columnar_batch", "arg"),
        ("repro.scalar.batch:classify_trace_with", "arg"),
        ("repro.scalar.batch:classify_columnar_chunk", "arg"),
        ("repro.scalar.tracker:classify_trace", "arg"),
        ("repro.scalar.columns:ClassifiedColumns.from_classified", None),
    ),
    "scalar.interpret": (
        ("repro.scalar.arch_batch:process_columns", "arg"),
        ("repro.scalar.arch_batch:process_columns_chunk", "arg"),
    ),
    "scalar.interpret_event": (
        ("repro.scalar.architectures:process_classified", "arg"),
    ),
    "timing.lower": (
        ("repro.timing.ops:build_timing_ops_columns", "arg"),
        ("repro.timing.ops:build_timing_ops", "arg"),
    ),
    "timing.sm": (
        ("repro.timing.sm_event:EventSmSimulator.run", "result"),
        ("repro.timing.sm:SmSimulator.run", "result"),
    ),
    "power.account": (
        ("repro.power.accounting:PowerAccountant.account", "arg"),
        ("repro.power.accounting:PowerAccountant.account_columns", "arg"),
        ("repro.power.accounting:PowerAccountant.aggregates_from_columns", "arg"),
        ("repro.power.accounting:PowerAccountant.account_aggregates", None),
    ),
    "power.rf_techniques": (
        ("repro.power.rf_techniques:rf_energy_for_technique", "arg"),
    ),
    "analysis": (
        ("repro.analysis.halfwarp:chunk_scalar_stats", "arg"),
        ("repro.analysis.divergence:divergence_stats", "arg"),
        ("repro.analysis.similarity:access_distribution", "arg"),
        ("repro.scalar.tracker:trace_statistics", "arg"),
        ("repro.compression.stats:compare_trace", "arg"),
        ("repro.analysis.static_.widths:analyze_widths", None),
    ),
    "workloads.synth": (("repro.workloads.synth:replicate_columnar", "result"),),
    "store.read": (
        ("repro.experiments.store:load_entry", None),
        ("repro.simt.serialize:load_columnar_v5", None),
        ("repro.simt.serialize:load_columnar", None),
        ("repro.experiments.runner:ExperimentRunner._load_sidecar", None),
    ),
    "store.write": (
        ("repro.experiments.store:store_entry", None),
        ("repro.simt.serialize:save_columnar_v5", None),
        ("repro.simt.serialize:save_trace", None),
        ("repro.experiments.runner:ExperimentRunner._store_sidecar", None),
    ),
    "runner": tuple(
        (f"repro.experiments.runner:ExperimentRunner.{name}", None)
        for name in (
            "run",
            "classified_columns",
            "processed_columns",
            "processed",
            "timing",
            "power",
            "prefetch",
        )
    ),
    "experiments.fig1": (("repro.experiments.fig1:compute", None),),
    "experiments.fig10": (("repro.experiments.fig10:compute", None),),
    "experiments.fig11": (("repro.experiments.fig11:compute", None),),
    "experiments.fig12": (("repro.experiments.fig12:compute", None),),
    "experiments.extras": (("repro.experiments.extras:compute", None),),
    "experiments.scorecard": (("repro.experiments.scorecard:compute", None),),
    "experiments.sweep": (
        ("repro.experiments.sensitivity:sweep_energy_parameter", None),
        ("repro.experiments.sensitivity:sweep_latency_parameter", None),
    ),
    "experiments.other": (
        ("repro.experiments.fig8:compute", None),
        ("repro.experiments.fig9:compute", None),
        ("repro.experiments.suite:compute", None),
        ("repro.experiments.staticdyn:compute", None),
        ("repro.experiments.staticdyn:compute_widths", None),
        ("repro.experiments.stalls:compute", None),
        ("repro.experiments.table1:render", None),
        ("repro.experiments.table2:render", None),
        ("repro.experiments.table3:compute", None),
        ("repro.experiments.table3:render", None),
    ),
}

#: Layers whose calls expose an event count (``*.events`` metrics).
EVENT_LAYERS = tuple(
    layer
    for layer, targets in LAYERS.items()
    if any(count_from is not None for _, count_from in targets)
)


@dataclass
class Span:
    """One wrapped call.  ``parent`` indexes the enclosing span, -1 at top."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    events: int | None = None
    cycles: int | None = None


def count_events(obj) -> tuple[int | None, int | None]:
    """``(events, simulated cycles)`` exposed by an argument or result."""
    cycles = getattr(obj, "cycles", None)
    instructions = getattr(obj, "instructions", None)
    if isinstance(cycles, numbers.Integral) and isinstance(instructions, numbers.Integral):
        return int(instructions), int(cycles)
    for attr in ("num_events", "total_instructions"):
        value = getattr(obj, attr, None)
        if isinstance(value, numbers.Integral):
            return int(value), None
    if isinstance(obj, list):
        if all(isinstance(item, list) for item in obj):
            return sum(map(len, obj)), None
        return len(obj), None
    return None, None


class Tracer:
    """Records spans around the :data:`LAYERS` targets it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing_targets: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, fn, name, layer, count_from, skip, args, kwargs):
        index = len(self.spans)
        span = Span(name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count_from == "result":
            span.events, span.cycles = count_events(result)
        elif count_from == "arg" and len(args) > skip:
            span.events, span.cycles = count_events(args[skip])
        return result

    def _wrapper(self, fn, name, layer, count_from, skip):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, count_from, skip, args, kwargs)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, layers: dict = LAYERS) -> None:
        """Wrap every target; unknown targets go to ``missing_targets``.

        Functions are patched by identity in every loaded ``repro.*``
        module namespace, because callers bind them with ``from ...
        import``; methods are patched on their class.  Every ``repro``
        submodule is imported first so those bindings exist.
        """
        import_all_repro_modules()
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, targets in layers.items():
            for spec, count_from in targets:
                module_name, _, qualname = spec.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing_targets.append(spec)
                    continue
                if path:
                    if isinstance(raw, (classmethod, staticmethod)):
                        skip = 1 if isinstance(raw, classmethod) else 0
                        wrapped = type(raw)(
                            self._wrapper(raw.__func__, qualname, layer, count_from, skip)
                        )
                    else:
                        wrapped = self._wrapper(raw, qualname, layer, count_from, 1)
                    self._set(owner, attr, wrapped)
                    continue
                wrapped = self._wrapper(raw, qualname, layer, count_from, 0)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, name, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (open in Perfetto)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span.start for span in self.spans)
        pid = os.getpid()
        events = []
        for span in self.spans:
            args = {}
            if span.events is not None:
                args["events"] = span.events
            if span.cycles is not None:
                args["sim_cycles"] = span.cycles
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": args,
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def import_all_repro_modules() -> None:
    """Import every ``repro`` submodule (``__main__`` would run the CLI)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def spans_nest(spans: list[Span]) -> bool:
    """Every span lies inside its parent's interval."""
    return all(
        span.parent < 0
        or (
            spans[span.parent].start <= span.start
            and span.end <= spans[span.parent].end
        )
        for span in spans
    )


def ledger(spans: list[Span], wall_s: float, layers=LAYERS) -> dict[str, float]:
    """Per-layer totals of a traced region that lasted ``wall_s`` seconds.

    A span's self time is its duration minus its children's durations
    (children of one span never overlap: the tracer is single-threaded).
    Events and cycles are taken from the outermost span of each layer
    only, so a layer calling itself is not counted twice.  ``total_s``
    is the inclusive time of those outermost spans.  The self times of
    all spans plus ``unattributed_s`` add up to ``wall_s``.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for layer in layers:
        for key in ("self_s", "calls", "events", "total_s", "sim_cycles"):
            out[f"{layer}.{key}"] = 0
    top_level = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        out[f"{span.layer}.self_s"] += duration - children[index]
        out[f"{span.layer}.calls"] += 1
        if span.parent < 0:
            top_level += duration
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].layer != span.layer:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            out[f"{span.layer}.total_s"] += duration
            out[f"{span.layer}.events"] += span.events or 0
            out[f"{span.layer}.sim_cycles"] += span.cycles or 0
    for layer in layers:
        self_s = out[f"{layer}.self_s"]
        out[f"{layer}.events_per_s"] = out[f"{layer}.events"] / self_s if self_s else 0.0
        out[f"{layer}.sim_cycles_per_s"] = (
            out[f"{layer}.sim_cycles"] / self_s if self_s else 0.0
        )
    out["traced_wall_s"] = wall_s
    out["unattributed_s"] = wall_s - top_level
    return out
