"""End-to-end experiment pipeline with caching.

One :class:`ExperimentRunner` owns a scale and a GPU/energy
configuration and lazily computes, per benchmark:

* the functional trace (executed once, shared by every architecture),
* the classified columns (architecture-independent),
* per-architecture processed columns, timing results and power reports.

Every figure regenerator takes a runner, so a full ``python -m repro all``
executes each benchmark exactly once.

With ``cache_dir`` set, every expensive stage also persists on disk so
it can be shared *across* processes, all in the v5 manifest/bank layout
(:mod:`repro.experiments.store`): traces, classified columns and
processed columns as page-aligned ``.npy`` banks a warm hit
memory-maps read-only, and each (benchmark, architecture) timing and
power result as a ``result`` entry with two small object banks.

Each stage has one engine: the vectorized classifier, the columnar
architecture interpretation and power accounting, and the event-driven
SM simulator.  The per-event engines they replaced stay in ``src/`` as
reference oracles for tests and ``timeline --compare-engines``; the
runner never selects them.  Each cached artifact embeds a content
fingerprint (:mod:`repro.experiments.cachekey`) covering the kernel,
scale, warp size, architecture, GPU configuration and energy
parameters; a mismatch — or any corrupt file — falls back to
re-execution and overwrites the stale entry, and staleness is decided
from the v5 manifest without materializing payloads.  Files from older
cache layouts are never read: they are plain misses.

With ``chunk_events`` set, each (benchmark, architecture) pair streams
its trace chunk by chunk through one
:class:`~repro.experiments.streaming.StreamingPipeline`; only the
pair's ``result`` entry is cached.

:meth:`ExperimentRunner.prefetch` fans the benchmark × architecture
matrix out over a process pool
(:mod:`repro.experiments.parallel`) that communicates through this
cache, and :attr:`ExperimentRunner.stats` counts cache hits, misses,
re-executions, per-stage wall time and the transport byte counters
(``bytes_mapped`` / ``bytes_deserialized``) for observability.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.analysis.static_.widths import WIDTH_ANALYSIS_VERSION, analyze_widths
from repro.config import ArchitectureConfig, GpuConfig
from repro.experiments import cachekey, store
from repro.experiments.streaming import StreamingPipeline
from repro.obs.instrument import record_columnar_warps
from repro.obs.memory import record_bytes_in_flight, record_peak_rss
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.power.accounting import PowerAccountant
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.power.report import PowerReport
from repro.scalar.arch_batch import process_columns
from repro.scalar.batch import classify_columnar_batch
from repro.scalar.columns import ClassifiedColumns, ProcessedColumns
from repro.simt.executor import run_kernel
from repro.simt.serialize import load_columnar_v5, save_columnar_v5
from repro.simt.trace import ColumnarTrace, iter_chunks, opcode_labels
from repro.timing.gpu import simulate_architecture_columns
from repro.timing.sm import TimingResult
from repro.timing.sm_event import DEFAULT_SM_ENGINE
from repro.workloads.registry import SCALES, BuiltWorkload, all_workloads, workload_by_name
from repro.workloads.synth import (
    iter_synthetic_chunks,
    materialize_synthetic,
    synthetic_replicas,
)

#: Version of the derived stage entries (classified and processed
#: columns, timing/power results).  Bump to invalidate all of them at
#: once, e.g. when a classifier or timing-model change alters their
#: meaning.
#: Version 2: the batch classification engine became the default and
#: the classified-stream fingerprint gained the engine name.
#: Version 4: the columnar architecture/power engine became the default
#: and the results fingerprint gained the arch-engine name (so the
#: batch and event engines never replay each other's sidecars).
#: Version 5: the event-driven SM timing engine became the default, the
#: results fingerprint gained the SM-engine name, and the memory model's
#: store path stopped allocating L1 lines (no-allocate stores change
#: load hit rates, hence latencies, hence every cached timing result).
#: Version 6: the two-bucket stall breakdown became the six-cause
#: per-scheduler taxonomy (:class:`~repro.timing.sm.StallBreakdown` was
#: reshaped and :class:`~repro.timing.sm.TimingResult` gained
#: ``stalls_per_scheduler``), changing the pickled timing-result shape.
#: Version 7: the engine switches were removed, so the fingerprints no
#: longer carry classifier, arch-engine or SM-engine names.
STAGE_VERSION = 7


def paper_architectures() -> tuple[ArchitectureConfig, ...]:
    """The four evaluated architectures, in Figure 11 order."""
    return (
        ArchitectureConfig.baseline(),
        ArchitectureConfig.alu_scalar(),
        ArchitectureConfig.gscalar_no_divergent(),
        ArchitectureConfig.gscalar(),
    )


def matrix_architectures() -> tuple[ArchitectureConfig, ...]:
    """Every modeled architecture: the paper's four plus the
    statically-compressed RF design point (kept out of
    :func:`paper_architectures` so the figure series stay faithful)."""
    return paper_architectures() + (ArchitectureConfig.static_compress(),)


class RunnerStats:
    """Cache and stage observability counters for one runner.

    ``counters`` tracks cache outcomes (``trace_cache_hits``,
    ``trace_cache_misses``, ``trace_cache_invalid``,
    ``trace_executions``, ``ccols_cache_hits``, ...);
    ``stage_seconds`` accumulates wall time per pipeline stage.  Stats
    merge across processes, so a parallel prefetch reports the totals
    over all workers.

    The storage is a :class:`~repro.obs.telemetry.Telemetry` registry
    (``runner_events`` / ``runner_stage_seconds`` counter families plus
    one ``cat="stage"`` span per :meth:`timer` scope, carrying the
    recording process's pid).  When the process-global telemetry is
    enabled — ``repro profile`` or ``--trace-out``/``--metrics-out`` —
    the runner binds its stats to that shared registry, so stage spans
    land on the same timeline as the pipeline's own spans and the
    Chrome trace shows the true per-worker concurrency; otherwise each
    stats object owns a private registry, exactly as independent as the
    old plain-dict implementation.
    """

    _EVENTS = "runner_events"
    _STAGES = "runner_stage_seconds"

    def __init__(self, telemetry: Telemetry | None = None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    @property
    def counters(self) -> dict[str, int]:
        """Cache-outcome counters as a plain name -> count dict."""
        return {
            dict(labels)["event"]: value
            for labels, value in sorted(
                self.telemetry.counters_named(self._EVENTS).items()
            )
        }

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Accumulated wall seconds per pipeline stage."""
        return {
            dict(labels)["stage"]: value
            for labels, value in sorted(
                self.telemetry.counters_named(self._STAGES).items()
            )
        }

    def bump(self, name: str, amount: int = 1) -> None:
        self.telemetry.count(self._EVENTS, amount, event=name)

    def add_time(self, stage: str, seconds: float) -> None:
        self.telemetry.count(self._STAGES, seconds, stage=stage)

    @contextmanager
    def timer(self, stage: str, **span_args) -> Iterator[None]:
        """Time a stage: accumulates seconds and records one span."""
        started = time.perf_counter()
        try:
            with self.telemetry.span(stage, cat="stage", **span_args):
                yield
        finally:
            self.add_time(stage, time.perf_counter() - started)

    def merge(self, other: "RunnerStats | dict") -> None:
        """Fold another stats object (or a worker payload) into this one.

        Accepts another :class:`RunnerStats`, a full :meth:`to_payload`
        dict (merged registry-to-registry, spans included), or the
        legacy ``{"counters", "stage_seconds"}`` shape of
        :meth:`to_dict`.
        """
        if isinstance(other, RunnerStats):
            self.telemetry.merge(other.telemetry)
            return
        snapshot = other.get("telemetry")
        if snapshot is not None:
            # Full payload: counters/stage_seconds are already inside
            # the registry snapshot; folding both would double-count.
            self.telemetry.merge(snapshot)
            return
        for name, amount in other.get("counters", {}).items():
            self.bump(name, amount)
        for stage, value in other.get("stage_seconds", {}).items():
            self.add_time(stage, value)

    @property
    def trace_executions(self) -> int:
        """Functional executions actually performed (cache misses paid)."""
        return self.counters.get("trace_executions", 0)

    @property
    def gauges(self) -> dict[str, float]:
        """High-water-mark gauges (peak RSS, bytes in flight, ...)."""
        rendered = {}
        for (name, labels), value in sorted(self.telemetry.gauges.items()):
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in labels)
                name = f"{name}{{{inner}}}"
            rendered[name] = value
        return rendered

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (``--stats-json`` output shape).

        Stamps the process's peak RSS into the gauges first, so every
        stats snapshot reports it even for whole-trace runs that never
        touched the streaming gauges.
        """
        record_peak_rss(self.telemetry)
        return {
            "counters": dict(sorted(self.counters.items())),
            "stage_seconds": {
                stage: round(value, 6)
                for stage, value in sorted(self.stage_seconds.items())
            },
            "gauges": self.gauges,
        }

    def to_payload(self) -> dict:
        """Worker-return payload: :meth:`to_dict` plus the registry.

        The ``telemetry`` snapshot carries every counter, histogram and
        span the worker recorded (stage spans keep the worker's pid),
        so a parent merging payloads reassembles the full multi-process
        timeline; the legacy keys stay for direct consumers.
        """
        payload = self.to_dict()
        payload["telemetry"] = self.telemetry.snapshot()
        return payload


class BenchmarkRun:
    """Cached functional-level artifacts of one benchmark.

    ``columnar`` is the trace in its columnar form: a cache hit hands
    in memory-mapped v5 banks, a miss the packed execution, and the
    synthetic large tier a deferred loader, so a streamed run (which
    consumes the replica generator) never builds the whole trace.
    """

    def __init__(
        self,
        abbr: str,
        built: BuiltWorkload,
        trace_fingerprint: str = "",
        columnar: ColumnarTrace | None = None,
        columnar_loader: "Callable[[BenchmarkRun], ColumnarTrace] | None" = None,
        warp_size: int | None = None,
    ):
        if columnar is None and columnar_loader is None:
            raise ValueError("BenchmarkRun needs a columnar trace or a loader")
        self.abbr = abbr
        self.built = built
        #: Content fingerprint of the (kernel, scale, warp-size)
        #: combination that produced the trace; stage entries derive
        #: their keys from it.
        self.trace_fingerprint = trace_fingerprint
        self._columnar = columnar
        self._columnar_loader = columnar_loader
        self._warp_size = warp_size

    def __repr__(self) -> str:
        return (
            f"BenchmarkRun(abbr={self.abbr!r}, "
            f"trace_fingerprint={self.trace_fingerprint!r})"
        )

    @property
    def warp_size(self) -> int:
        """Warp size without forcing any materialization."""
        if self._warp_size is not None:
            return self._warp_size
        return self.columnar.warp_size

    @property
    def columnar(self) -> ColumnarTrace:
        """The columnar trace (the deferred loader runs on first access)."""
        if self._columnar is None:
            loader = self._columnar_loader
            self._columnar_loader = None
            self._columnar = loader(self)
        return self._columnar


class ExperimentRunner:
    """Caches traces and per-architecture results across experiments."""

    def __init__(
        self,
        scale: str = "default",
        config: GpuConfig | None = None,
        params: EnergyParams | None = None,
        verbose: bool = False,
        cache_dir: str | Path | None = None,
        chunk_events: int | None = None,
    ):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
        if chunk_events is not None and chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.chunk_events = chunk_events
        self.scale = SCALES[scale]
        self.config = config or GpuConfig()
        self.params = params or DEFAULT_ENERGY
        self.verbose = verbose
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        # With profiling on, stage spans and cache counters go straight
        # into the shared registry (one timeline with the pipeline's
        # own spans); otherwise the stats own a private registry.
        telemetry = get_telemetry()
        self.stats = RunnerStats(telemetry=telemetry if telemetry.enabled else None)
        if self.cache_dir is not None:
            # Reclaim crashed-writer debris and superseded v5 banks on
            # open (age-gated, so live writers are never swept).
            swept = store.sweep_orphans(self.cache_dir)
            if swept.tmp_files:
                self.stats.bump("cache_tmp_swept", swept.tmp_files)
            if swept.orphan_bank_dirs:
                self.stats.bump("cache_banks_swept", swept.orphan_bank_dirs)
            if swept.bytes_freed:
                self.stats.bump("cache_bytes_swept", swept.bytes_freed)
        self._runs: dict[str, BenchmarkRun] = {}
        self._seeds: dict[str, tuple[ColumnarTrace, int]] = {}
        self._warp_traces: dict[tuple[str, int], ColumnarTrace] = {}
        self._static_widths: dict[str, tuple[int, ...]] = {}
        self._classified_columns: dict[str, ClassifiedColumns] = {}
        self._processed_columns: dict[tuple[str, str], ProcessedColumns] = {}
        self._timing: dict[tuple[str, str], TimingResult] = {}
        self._power: dict[tuple[str, str], PowerReport] = {}

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[runner] {message}", flush=True)

    @staticmethod
    def _normalize(abbr: str) -> str:
        """One canonical spelling for benchmark keys, lookups and files."""
        return abbr.strip().upper()

    # ------------------------------------------------------------------
    # On-disk cache plumbing.
    # ------------------------------------------------------------------
    def _trace_stem(self, key: str, warp_size: int) -> str:
        suffix = "" if warp_size == 32 else f"_w{warp_size}"
        return f"{key}_{self.scale.name}{suffix}"

    def _stage_stem(self, key: str, stage: str) -> str:
        return f"{key}_{self.scale.name}_{stage}"

    # ------------------------------------------------------------------
    # Trace stage.
    # ------------------------------------------------------------------
    def _record_trace_hit(self, key: str, columnar: ColumnarTrace) -> None:
        self.stats.bump("trace_cache_hits")
        telemetry = get_telemetry()
        if telemetry.enabled:
            # Cache hits skip the executor, so feed the instruction-mix
            # counters from the columnar arrays instead — same numbers
            # either way.
            record_columnar_warps(telemetry, columnar, opcode_labels())

    def _obtain_trace(
        self, key: str, built: BuiltWorkload, warp_size: int
    ) -> tuple[ColumnarTrace, str]:
        """Load a fingerprint-matching cached trace or execute and cache.

        A cache hit returns the :class:`ColumnarTrace` exactly as it
        lies on disk: its arrays are read-only memory maps of the v5
        banks, so the hit copies nothing.  A cache miss executes, packs
        the trace once, saves that object and returns it; the event
        form is dropped.
        """
        fingerprint = cachekey.trace_fingerprint(built.kernel, self.scale, warp_size)
        stem = self._trace_stem(key, warp_size)
        if self.cache_dir is not None:
            with self.stats.timer("trace_load", benchmark=key, warp_size=warp_size):
                columnar, status, entry = load_columnar_v5(
                    self.cache_dir, stem, fingerprint
                )
            if status == "hit":
                self.stats.bump("bytes_mapped", entry.bytes_mapped)
                self._log(f"mapped v5 trace for {key} (warp {warp_size})")
                self._record_trace_hit(key, columnar)
                return columnar, fingerprint
            if status in ("stale", "corrupt"):
                self._log(f"discarding {status} v5 trace entry for {key}")
                self.stats.bump("trace_cache_invalid")
            self.stats.bump("trace_cache_misses")
        self._log(f"executing {key} at scale {self.scale.name!r} warp {warp_size}")
        self.stats.bump("trace_executions")
        with self.stats.timer("trace_execute", benchmark=key, warp_size=warp_size):
            trace = run_kernel(
                built.kernel, built.launch, built.memory, warp_size=warp_size
            )
        columnar = trace.to_columnar()
        if self.cache_dir is not None:
            with self.stats.timer("trace_save", benchmark=key, warp_size=warp_size):
                save_columnar_v5(columnar, self.cache_dir, stem, fingerprint)
        return columnar, fingerprint

    # ------------------------------------------------------------------
    def benchmark_names(self) -> list[str]:
        """All benchmark abbreviations in Table 2 order."""
        return [spec.abbr for spec in all_workloads()]

    def run(self, abbr: str) -> BenchmarkRun:
        """Execute (or fetch) one benchmark's functional trace.

        With ``cache_dir`` set, traces persist across processes as v5
        entries validated against a content fingerprint before reuse.
        """
        key = self._normalize(abbr)
        if key not in self._runs:
            spec = workload_by_name(key)
            built = spec.builder(self.scale)
            columnar, fingerprint = self._obtain_trace(key, built, 32)
            if self.scale.synthetic_events > 0:
                # Synthetic tier: what was executed (and cached) above is
                # the *seed* trace.  The run carries a deferred
                # materializer instead of the replicated whole trace, so
                # a streamed pass (which consumes the replica generator)
                # never pays for — or holds — the 10^6+-event form.
                replicas = synthetic_replicas(columnar, self.scale)
                self._seeds[key] = (columnar, replicas)
                self._log(
                    f"{key}: synthetic tier, {replicas} replicas of "
                    f"{columnar.num_events} seed events"
                )
                self._runs[key] = BenchmarkRun(
                    abbr=key,
                    built=built,
                    trace_fingerprint=fingerprint,
                    columnar_loader=self._materialize_synthetic,
                    warp_size=columnar.warp_size,
                )
            else:
                self._runs[key] = BenchmarkRun(
                    abbr=key,
                    built=built,
                    trace_fingerprint=fingerprint,
                    columnar=columnar,
                )
        return self._runs[key]

    def _materialize_synthetic(self, run: BenchmarkRun) -> ColumnarTrace:
        """Build the whole replicated trace (the non-streaming arm)."""
        seed, replicas = self._seeds[run.abbr]
        self._log(
            f"materializing synthetic {run.abbr}: {replicas} replicas, "
            f"{seed.num_events * replicas} events"
        )
        self.stats.bump("synthetic_materializations")
        with self.stats.timer("synthetic_materialize", benchmark=run.abbr):
            return materialize_synthetic(seed, replicas)

    def trace_with_warp_size(self, abbr: str, warp_size: int) -> ColumnarTrace:
        """Columnar trace of a benchmark at another warp size (Figure 10).

        Shares the same fingerprint-checked on-disk cache as :meth:`run`,
        with the warp size in the cache key, so warp-64 traces are
        executed once per cache directory rather than once per process.
        """
        key = self._normalize(abbr)
        if warp_size == 32:
            return self.run(key).columnar
        token = (key, warp_size)
        if token not in self._warp_traces:
            spec = workload_by_name(key)
            built = spec.builder(self.scale)
            self._warp_traces[token], _ = self._obtain_trace(key, built, warp_size)
        return self._warp_traces[token]

    # ------------------------------------------------------------------
    def static_widths(self, abbr: str) -> tuple[int, ...]:
        """Per-register guaranteed ``enc`` table from the width analysis.

        Architecture-independent (a pure function of the kernel), cached
        per benchmark and fed to the ``static_compress`` interpretation.
        Cheap relative to tracing, so it is recomputed per process
        rather than persisted; the result entries it feeds are keyed
        on :data:`~repro.analysis.static_.widths.WIDTH_ANALYSIS_VERSION`.
        """
        key = self._normalize(abbr)
        if key not in self._static_widths:
            run = self.run(key)
            with self.stats.timer("width_analysis", benchmark=key):
                self._static_widths[key] = analyze_widths(
                    run.built.kernel, warp_size=run.warp_size
                ).register_enc
        return self._static_widths[key]

    def _widths_for(self, abbr: str, arch: ArchitectureConfig):
        return self.static_widths(abbr) if arch.static_compression else None

    def _load_column_banks(self, stem: str, fingerprint: str, kind: str):
        """Open one v5 entry of ``kind``; ``None`` unless a clean hit."""
        if self.cache_dir is None:
            return None
        entry, status = store.load_entry(self.cache_dir, stem, fingerprint)
        if status == "hit" and entry.kind == kind:
            self.stats.bump(f"{kind}_cache_hits")
            self.stats.bump("bytes_mapped", entry.bytes_mapped)
            if entry.bytes_deserialized:
                self.stats.bump("bytes_deserialized", entry.bytes_deserialized)
            return entry
        if status == "hit" or status in ("stale", "corrupt"):
            self._log(f"discarding {status} {kind} banks {stem}")
            self.stats.bump("sidecar_invalid")
        self.stats.bump(f"{kind}_cache_misses")
        return None

    def _store_column_banks(
        self,
        stem: str,
        fingerprint: str,
        kind: str,
        warp_size: int,
        arrays=None,
        objects: dict | None = None,
    ) -> None:
        if self.cache_dir is None:
            return
        store.store_entry(
            self.cache_dir,
            stem,
            fingerprint=fingerprint,
            kind=kind,
            meta={"warp_size": int(warp_size)},
            arrays=arrays,
            objects=objects,
        )

    def classified_columns(self, abbr: str) -> ClassifiedColumns:
        """Classified columns of one benchmark (architecture-independent,
        shared by every architecture's interpretation).

        Persisted as v5 ``ccols`` banks: a warm hit maps the arrays
        read-only instead of classifying again.
        """
        key = self._normalize(abbr)
        if key not in self._classified_columns:
            run = self.run(key)
            fingerprint = cachekey.columns_fingerprint(
                run.trace_fingerprint, STAGE_VERSION
            )
            stem = self._stage_stem(key, "ccols")
            entry = self._load_column_banks(stem, fingerprint, "ccols")
            if entry is not None:
                self._classified_columns[key] = ClassifiedColumns.from_arrays(
                    int(entry.meta["warp_size"]), entry.arrays
                )
                return self._classified_columns[key]
            with self.stats.timer("classify", benchmark=key):
                ccols = classify_columnar_batch(
                    run.columnar, run.built.kernel.num_registers
                )
            self._store_column_banks(
                stem, fingerprint, "ccols", ccols.warp_size, ccols.as_arrays()
            )
            self._classified_columns[key] = ccols
        return self._classified_columns[key]

    def _processed_fingerprint(self, run: BenchmarkRun, arch: ArchitectureConfig) -> str:
        return cachekey.processed_fingerprint(
            run.trace_fingerprint,
            arch,
            self.config,
            STAGE_VERSION,
            analysis_version=(
                WIDTH_ANALYSIS_VERSION if arch.static_compression else None
            ),
        )

    def processed_columns(self, abbr: str, arch: ArchitectureConfig) -> ProcessedColumns:
        """Per-architecture columnar processed trace for one benchmark.

        Persisted as v5 ``pcols`` banks keyed on the interpretation
        closure only (not the energy parameters), so re-costing energy
        replays these banks instead of re-interpreting.
        """
        key = (self._normalize(abbr), arch.name)
        if key not in self._processed_columns:
            run = self.run(key[0])
            fingerprint = self._processed_fingerprint(run, arch)
            stem = self._stage_stem(key[0], f"pcols_{arch.name}")
            entry = self._load_column_banks(stem, fingerprint, "pcols")
            if entry is not None:
                self._processed_columns[key] = ProcessedColumns.from_arrays(
                    int(entry.meta["warp_size"]), entry.arrays
                )
                return self._processed_columns[key]
            ccols = self.classified_columns(key[0])
            widths = self._widths_for(key[0], arch)
            with self.stats.timer("process", benchmark=key[0], arch=arch.name):
                pcols = process_columns(ccols, arch, static_widths=widths)
            self._store_column_banks(
                stem, fingerprint, "pcols", pcols.warp_size, pcols.as_arrays()
            )
            self._processed_columns[key] = pcols
        return self._processed_columns[key]

    def _results_fingerprint(self, run: BenchmarkRun, arch: ArchitectureConfig) -> str:
        return cachekey.stage_fingerprint(
            run.trace_fingerprint,
            arch,
            self.config,
            self.params,
            STAGE_VERSION,
            analysis_version=(
                WIDTH_ANALYSIS_VERSION if arch.static_compression else None
            ),
        )

    def warps_per_cta(self, abbr: str) -> int | None:
        """Warps per CTA of one benchmark's launch (barrier scope)."""
        run = self.run(self._normalize(abbr))
        return run.built.launch.warps_per_cta(run.warp_size)

    def _results(self, key: str, arch: ArchitectureConfig) -> None:
        """Fill timing and power for one pair.

        Probes the ``result`` entry once; on a miss, computes timing and
        power together — whole-trace, or streamed when ``chunk_events``
        is set — and stores them as one entry.
        """
        run = self.run(key)
        stem = self._stage_stem(key, f"results_{arch.name}")
        fingerprint = self._results_fingerprint(run, arch)
        entry = self._load_column_banks(stem, fingerprint, "result")
        if entry is not None:
            timing, power = entry.objects["timing"], entry.objects["power"]
        else:
            if self.chunk_events is not None:
                timing, power = self._compute_streamed(key, arch)
            else:
                timing, power = self._compute_whole(key, arch)
            self._store_column_banks(
                stem,
                fingerprint,
                "result",
                run.warp_size,
                objects={"timing": timing, "power": power},
            )
        self._timing[(key, arch.name)] = timing
        self._power[(key, arch.name)] = power

    def _compute_whole(
        self, key: str, arch: ArchitectureConfig
    ) -> tuple[TimingResult, PowerReport]:
        self._log(f"timing {key} on {arch.name}")
        ccols = self.classified_columns(key)
        pcols = self.processed_columns(key, arch)
        warps_per_cta = self.warps_per_cta(key)
        with self.stats.timer("timing", benchmark=key, arch=arch.name):
            timing = simulate_architecture_columns(
                ccols, pcols, arch, self.config, warps_per_cta=warps_per_cta
            )
        accountant = PowerAccountant(arch, self.params, self.config)
        with self.stats.timer("power", benchmark=key, arch=arch.name):
            power = accountant.account_columns(pcols, timing)
        return timing, power

    def _chunk_stream(self, key: str) -> Iterator:
        """The chunk source: replica generator for synthetic tiers
        (nothing whole-trace is ever built), ``iter_chunks`` otherwise."""
        assert self.chunk_events is not None
        run = self.run(key)
        seeded = self._seeds.get(key)
        if seeded is not None:
            return iter_synthetic_chunks(seeded[0], seeded[1], self.chunk_events)
        return iter_chunks(run.columnar, self.chunk_events)

    def _compute_streamed(
        self, key: str, arch: ArchitectureConfig
    ) -> tuple[TimingResult, PowerReport]:
        """One pair through a one-architecture :class:`StreamingPipeline`:
        chunked classify / process / lower / aggregate, then the SM
        simulation barrier at ``finish``."""
        self._log(f"streaming {key} on {arch.name} (chunk_events={self.chunk_events})")
        pipeline = StreamingPipeline(
            (arch,),
            self.run(key).built.kernel.num_registers,
            config=self.config,
            params=self.params,
            static_widths={arch.name: self._widths_for(key, arch)},
        )
        for chunk in self._chunk_stream(key):
            with self.stats.timer("stream", benchmark=key, arch=arch.name):
                pipeline.feed(chunk)
        warps_per_cta = self.warps_per_cta(key)
        with self.stats.timer("timing", benchmark=key, arch=arch.name):
            outcome = pipeline.finish(warps_per_cta=warps_per_cta)
        self.stats.bump("stream_chunks", outcome.num_chunks)
        # Gauges land in the stats registry: the shared one when
        # telemetry is on, else the runner's private registry — so
        # ``--stats-json`` reports them without a telemetry session.
        record_bytes_in_flight(outcome.peak_bytes_in_flight, self.stats.telemetry)
        record_peak_rss(self.stats.telemetry)
        return outcome.timing[arch.name], outcome.power[arch.name]

    def timing(self, abbr: str, arch: ArchitectureConfig) -> TimingResult:
        """Cycle-level result for one (benchmark, architecture) pair."""
        key = self._normalize(abbr)
        if (key, arch.name) not in self._timing:
            self._results(key, arch)
        return self._timing[(key, arch.name)]

    def timeline(
        self,
        abbr: str,
        arch: ArchitectureConfig,
        recorder,
        sm_engine: str = DEFAULT_SM_ENGINE,
    ) -> TimingResult:
        """Re-run timing with a flight recorder threaded through.

        Always simulates (never replays a result entry — recorded events
        cannot come from a cache) and never stores the result, so the
        recorded run cannot pollute the recorder-free result cache.
        ``sm_engine`` picks the SM engine for this one run: the
        ``repro timeline --compare-engines`` gate drives both engines
        over the same streams.
        """
        key = self._normalize(abbr)
        warps_per_cta = self.warps_per_cta(key)
        self._log(f"timeline {key} on {arch.name} ({sm_engine} engine)")
        with self.stats.timer(
            "timeline", benchmark=key, arch=arch.name, sm_engine=sm_engine
        ):
            return simulate_architecture_columns(
                self.classified_columns(key),
                self.processed_columns(key, arch),
                arch,
                self.config,
                warps_per_cta=warps_per_cta,
                sm_engine=sm_engine,
                recorder=recorder,
            )

    def power(self, abbr: str, arch: ArchitectureConfig) -> PowerReport:
        """Power report for one (benchmark, architecture) pair."""
        key = self._normalize(abbr)
        if (key, arch.name) not in self._power:
            self._results(key, arch)
        return self._power[(key, arch.name)]

    # ------------------------------------------------------------------
    # Matrix prefetch (the parallel experiment engine's front door).
    # ------------------------------------------------------------------
    def prefetch(
        self,
        names: Sequence[str] | None = None,
        jobs: int = 1,
        warp_sizes: Sequence[int] = (32,),
        arches: Sequence[ArchitectureConfig] | None = None,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> RunnerStats:
        """Warm every cacheable stage of the benchmark × arch matrix.

        With ``jobs > 1`` the matrix fans out over a process pool
        (:func:`repro.experiments.parallel.run_matrix`); workers share
        results exclusively through the on-disk cache, so ``cache_dir``
        is required.  Worker statistics merge into :attr:`stats` and the
        merged stats are returned.  Serial (``jobs == 1``) prefetch
        works with or without a cache directory.
        """
        wanted = [self._normalize(name) for name in (names or self.benchmark_names())]
        arch_list = tuple(arches) if arches is not None else paper_architectures()
        jobs = max(1, int(jobs))
        if progress is None and self.verbose:
            progress = lambda abbr, done, total: self._log(
                f"prefetch {done}/{total}: {abbr}"
            )
        with self.stats.timer("prefetch"):
            if jobs == 1 or len(wanted) <= 1:
                for index, abbr in enumerate(wanted):
                    self.run(abbr)
                    for warp_size in warp_sizes:
                        self.trace_with_warp_size(abbr, warp_size)
                    for arch in arch_list:
                        self.power(abbr, arch)
                    if progress is not None:
                        progress(abbr, index + 1, len(wanted))
            else:
                if self.cache_dir is None:
                    raise ValueError(
                        "parallel prefetch requires cache_dir: worker "
                        "processes communicate through the on-disk cache"
                    )
                from repro.experiments.parallel import run_matrix

                worker_stats = run_matrix(
                    names=wanted,
                    scale=self.scale.name,
                    cache_dir=self.cache_dir,
                    jobs=jobs,
                    warp_sizes=tuple(warp_sizes),
                    arches=arch_list,
                    config=self.config,
                    params=self.params,
                    progress=progress,
                    telemetry=get_telemetry().enabled,
                    chunk_events=self.chunk_events,
                )
                self.stats.merge(worker_stats)
        return self.stats
