"""End-to-end experiment pipeline with caching.

One :class:`ExperimentRunner` owns a scale and a GPU/energy
configuration and lazily computes, per benchmark, the functional trace
(at a synthetic tier, the seed trace its passes replicate), the
summaries (:mod:`repro.experiments.summary`) and, per architecture, an
op-table memo entry (the digest of its
:class:`~repro.timing.ops.TimingOpTable`, per lowering key), the power
aggregates, the timing result and the power report.

Summaries, op tables and aggregates all come from one pass over the
benchmark's chunks (:meth:`ExperimentRunner._pass`, through
:func:`~repro.experiments.streaming.stream_pipeline`).  A chunk is a
run of whole warps of at most ``chunk_events`` events; without
``chunk_events`` the trace is one chunk (one per replica at a
synthetic tier).  :meth:`ExperimentRunner.prefetch` asks for
everything the experiments read, so each benchmark is passed once; a
lazy :meth:`~ExperimentRunner.summary`, :meth:`~ExperimentRunner.timing`
or :meth:`~ExperimentRunner.power` request passes only what it asks for.
After the stream a pass joins one architecture's table at a time,
digests and simulates it, and drops it before it joins the next (an
architecture whose chunk tables are the last one's takes that table and
digest), so a pass over several architectures holds one joined table.
A pair's op table stays in the memo only when its pass was one chunk,
so no streamed tier is held; a pair the sweeps or
:meth:`ExperimentRunner.timeline` must simulate again is passed again.

A full ``python -m repro all`` builds and executes each benchmark
exactly once at warp size 32 (Figure 10 also builds, executes, counts
and drops a warp-64 trace).  SM simulations are
memoized by their input (:meth:`ExperimentRunner._simulate`):
architectures or sweep points that lower to the same op table under the
same machine share one simulation, and a latency sweep, which leaves
the lowering key alone, lowers nothing.

Per benchmark a runner keeps the kernel and launch, the trace
fingerprint, the width analysis, the summaries, the op-table memo
entries, the power aggregates and the results.  The executed trace (a
:class:`BenchmarkRun`) and the workload's memory image serve only
passes: :meth:`ExperimentRunner.prefetch` releases both once the
benchmark's pass is done, so a serial prefetch holds one benchmark's
trace at a time.  A later request that needs a pass (a static-compress
pair nobody prefetched, or a streamed pair a latency sweep simulates
again) builds and executes the workload again, counted in
``trace_executions``.  Lazy requests release nothing.

With ``cache_dir`` set, summaries and each (benchmark, architecture)
timing and power result also persist on disk as one-file entries
(:mod:`repro.experiments.store`), so they are shared *across*
processes.  Traces, op tables and aggregates are memoized in memory
only: a warm run derives every entry's fingerprint from the built
workload, hits every entry and executes nothing.  A cache-less runner
derives no fingerprint at all.

Each stage has one engine: the vectorized classifier, the columnar
architecture interpretation and power accounting, and the event-driven
SM simulator.  The per-event engines they replaced live in
``tests/reference`` as oracles for the tests.  Each cached entry
embeds a content fingerprint (:mod:`repro.experiments.cachekey`)
covering the kernel, launch, input arrays, scale, architecture or
summary, GPU configuration and energy parameters; a mismatch — or
any corrupt file — falls back to recomputation and overwrites the
stale entry, and staleness is decided from the entry's header without
unpickling its payload.  Files from older cache layouts are never
read: they are plain misses.

With ``jobs > 1``, :meth:`ExperimentRunner.prefetch` fans the
benchmarks out over a process pool (:mod:`repro.experiments.parallel`)
whose workers pass their benchmarks and return the summaries and
results into the runner's memos, with or without a cache, and
:attr:`ExperimentRunner.stats` counts cache hits, misses,
re-executions, passes and per-stage wall time for observability.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.analysis.static_.widths import (
    WIDTH_ANALYSIS_VERSION,
    WidthResult,
    analyze_widths,
)
from repro.config import (
    ALL_ARCHITECTURES,
    EVALUATED_ARCHITECTURES,
    ArchitectureConfig,
    GpuConfig,
)
from repro.experiments import cachekey, store
from repro.experiments.streaming import stream_pipeline
from repro.obs.memory import record_bytes_in_flight, record_peak_rss
from repro.obs.telemetry import Telemetry, get_telemetry
from repro.power.accounting import PowerAccountant, _PowerAggregates
from repro.power.energy import DEFAULT_ENERGY, EnergyParams
from repro.power.report import PowerReport
from repro.simt.executor import run_kernel
from repro.simt.trace import ColumnarTrace, TraceChunk, iter_chunks
from repro.timing.gpu import simulate_warp_ops
from repro.timing.ops import TimingOpTable, lowering_key
from repro.timing.sm import TimingResult
from repro.workloads.registry import SCALES, BuiltWorkload, all_workloads, workload_by_name
from repro.workloads.synth import iter_synthetic_chunks, synthetic_replicas

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
#: Version 8: per-benchmark ``summary`` entries replaced the trace and
#: classified-column entries.
#: Version 9: one ``counts`` summary replaced fig1's, fig9's and suite's,
#: and the ``extras`` payload lost its ``stats`` and coverage copy.
#: Version 10: the ``fig12`` summary holds Warped-Compression's activity
#: counts, not its energy, and summaries are not keyed on the energy
#: parameters.
#: Version 11: the ``extras`` summary's address-width study holds stored
#: bytes, not fractions, so it merges over chunks.
STAGE_VERSION = 11

#: Warp size of the runner's traces (the paper's machine).
WARP_SIZE = 32


def paper_architectures() -> tuple[ArchitectureConfig, ...]:
    """The four evaluated architectures, in Figure 11 order
    (:data:`repro.config.EVALUATED_ARCHITECTURES`)."""
    return EVALUATED_ARCHITECTURES


def matrix_architectures() -> tuple[ArchitectureConfig, ...]:
    """Every modeled architecture (:data:`repro.config.ALL_ARCHITECTURES`):
    the paper's four plus the statically-compressed RF design point."""
    return ALL_ARCHITECTURES


class RunnerStats:
    """Cache and stage observability counters for one runner.

    ``counters`` tracks cache outcomes (``summary_cache_hits``,
    ``summary_cache_misses``, ``result_cache_hits``, ...,
    ``cache_invalid``), ``trace_executions``, passes (``stream_passes``,
    one per pass over a benchmark, and their ``stream_chunks``),
    ``op_tables`` (one per pair a pass builds) and SM engine work
    (``sm_runs`` simulations, ``sm_reuses`` memo hits);
    ``stage_seconds`` accumulates wall time per pipeline stage.  Stats
    merge across processes, so a parallel prefetch reports the totals
    over all workers.

    The storage is a :class:`~repro.obs.telemetry.Telemetry` registry
    (``runner_events`` / ``runner_stage_seconds`` counter families plus
    one ``cat="stage"`` span per :meth:`timer` scope, carrying the
    recording process's pid).  When the process-global telemetry is
    enabled (``--trace-out``), the runner binds its stats to that
    shared registry, so stage spans land on the same timeline as the
    pipeline's own spans, the Chrome trace shows the true per-worker
    concurrency and carries both counter families as counter events;
    otherwise each stats object owns a private registry.
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

        Accepts another :class:`RunnerStats` or a dict carrying a
        registry :meth:`~repro.obs.telemetry.Telemetry.snapshot` under
        ``telemetry`` (a :func:`repro.experiments.parallel.execute_task`
        payload), merged registry-to-registry, spans included.
        """
        self.telemetry.merge(
            other.telemetry if isinstance(other, RunnerStats) else other["telemetry"]
        )

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
        stats snapshot reports it even for runs that passed nothing.
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


@dataclass(eq=False)
class BenchmarkRun:
    """The functional-level artifacts of one benchmark.

    ``columnar`` is the executor's trace; at a synthetic tier it is the
    seed trace, which a pass streams ``replicas`` times
    (:func:`~repro.workloads.synth.iter_synthetic_chunks`) without ever
    building the whole replicated trace.  Only passes read it:
    :meth:`ExperimentRunner.prefetch` drops the run after the
    benchmark's pass, and :meth:`ExperimentRunner.run` executes again.
    """

    abbr: str
    built: BuiltWorkload = field(repr=False)
    columnar: ColumnarTrace = field(repr=False)
    replicas: int = 1


class _OpTable(NamedTuple):
    """One pair's op-table memo entry under one lowering key."""

    digest: str
    #: ``None`` unless the pass that built it was one chunk.
    table: TimingOpTable | None


class ExperimentRunner:
    """Caches traces, summaries and per-architecture results across
    experiments."""

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
            # Reclaim crashed-writer debris on open (age-gated, so live
            # writers are never swept).
            swept, freed = store.sweep_orphans(self.cache_dir)
            if swept:
                self.stats.bump("cache_tmp_swept", swept)
                self.stats.bump("cache_bytes_swept", freed)
        self._workloads: dict[str, BuiltWorkload] = {}
        self._trace_fingerprints: dict[str, str] = {}
        self._runs: dict[str, BenchmarkRun] = {}
        self._widths: dict[str, WidthResult] = {}
        self._op_tables: dict[tuple[str, str, tuple[int, int, int]], _OpTable] = {}
        self._aggregates: dict[tuple[str, str], _PowerAggregates] = {}
        self._summaries: dict[tuple[str, str], Any] = {}
        self._timing: dict[tuple[str, str], TimingResult] = {}
        self._power: dict[tuple[str, str], PowerReport] = {}
        self._sm_results: dict[tuple, TimingResult] = {}

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
    def _stage_stem(self, key: str, stage: str) -> str:
        return f"{key}_{self.scale.name}_{stage}"

    def _load(self, kind: str, entry: Callable[[], tuple[str, str]]) -> Any:
        """The payload of a current ``kind`` cache entry, else ``None``.

        With ``cache_dir`` set, a hit or a miss is counted (and a stale
        or corrupt entry as ``cache_invalid``); ``entry`` gives the
        entry's ``(stem, fingerprint)``.  A cache-less runner reads
        nothing and never derives a key.
        """
        if self.cache_dir is None:
            return None
        stem, fingerprint = entry()
        payload, status = store.load_entry(self.cache_dir, stem, fingerprint, kind)
        if status == "hit":
            self.stats.bump(f"{kind}_cache_hits")
            return payload
        if status != "absent":
            self._log(f"discarding {status} {kind} entry {stem}")
            self.stats.bump("cache_invalid")
        self.stats.bump(f"{kind}_cache_misses")
        return None

    def _store(self, kind: str, entry: Callable[[], tuple[str, str]], payload):
        """Store a computed payload as a ``kind`` entry (with ``cache_dir``)."""
        if self.cache_dir is not None:
            stem, fingerprint = entry()
            store.store_entry(
                self.cache_dir,
                stem,
                fingerprint=fingerprint,
                kind=kind,
                payload=payload,
            )

    # ------------------------------------------------------------------
    # Trace stage.
    # ------------------------------------------------------------------
    def benchmark_names(self) -> list[str]:
        """All benchmark abbreviations in Table 2 order."""
        return [spec.abbr for spec in all_workloads()]

    def _workload(self, key: str) -> BuiltWorkload:
        """The built workload of one benchmark (kernel, launch, memory)."""
        if key not in self._workloads:
            self._workloads[key] = workload_by_name(key).builder(self.scale)
        return self._workloads[key]

    def _trace_fingerprint(self, key: str) -> str:
        """Fingerprint of a benchmark's trace, from the built workload
        alone: every cache entry derives its key from it, so a warm
        run never executes."""
        if key not in self._trace_fingerprints:
            self._trace_fingerprints[key] = cachekey.trace_fingerprint(
                self._workload(key), self.scale, WARP_SIZE
            )
        return self._trace_fingerprints[key]

    def _execute(self, key: str, built: BuiltWorkload, warp_size: int) -> ColumnarTrace:
        self._log(f"executing {key} at scale {self.scale.name!r} warp {warp_size}")
        self.stats.bump("trace_executions")
        with self.stats.timer("trace_execute", benchmark=key, warp_size=warp_size):
            return run_kernel(
                built.kernel, built.launch, built.memory, warp_size=warp_size
            )

    def execute(self, abbr: str, warp_size: int) -> ColumnarTrace:
        """Execute a freshly built benchmark at ``warp_size``.

        Nothing is kept: Figure 10 counts its warp-64 trace and drops
        it.  (Execution mutates the workload's memory image, hence the
        fresh build.)
        """
        key = self._normalize(abbr)
        return self._execute(key, workload_by_name(key).builder(self.scale), warp_size)

    def run(self, abbr: str) -> BenchmarkRun:
        """Execute (or fetch) one benchmark's functional trace.

        At a synthetic tier the executed trace is the seed, and the run
        records how many replicas its passes stream.  After
        :meth:`prefetch` released the run, the workload is built and
        executed again (execution mutates its memory image).
        """
        key = self._normalize(abbr)
        if key not in self._runs:
            built = self._workload(key)
            if built.memory is None:
                built = self._workloads[key] = workload_by_name(key).builder(self.scale)
            columnar = self._execute(key, built, WARP_SIZE)
            replicas = synthetic_replicas(columnar, self.scale)
            if self.scale.synthetic_events > 0:
                self._log(
                    f"{key}: synthetic tier, {replicas} replicas of "
                    f"{columnar.num_events} seed events"
                )
            self._runs[key] = BenchmarkRun(key, built, columnar, replicas)
        return self._runs[key]

    def _chunks(self, run: BenchmarkRun) -> Iterator[TraceChunk]:
        """A benchmark's chunks: runs of whole warps of at most
        ``chunk_events`` events, else one chunk per trace.  A synthetic
        tier streams from the replica generator, one replica at a time,
        so nothing of the whole replicated trace is ever built."""
        if self.scale.synthetic_events > 0:
            return iter_synthetic_chunks(run.columnar, run.replicas, self.chunk_events)
        return iter_chunks(run.columnar, self.chunk_events)

    # ------------------------------------------------------------------
    def width_analysis(self, abbr: str) -> WidthResult:
        """The kernel's static width analysis, memoized per benchmark.

        Architecture-independent (a pure function of the kernel) and
        cheap relative to tracing, so it is recomputed per process
        rather than persisted; the entries it feeds are keyed on
        :data:`~repro.analysis.static_.widths.WIDTH_ANALYSIS_VERSION`.
        """
        key = self._normalize(abbr)
        if key not in self._widths:
            with self.stats.timer("width_analysis", benchmark=key):
                self._widths[key] = analyze_widths(
                    self._workload(key).kernel, warp_size=WARP_SIZE
                )
        return self._widths[key]

    def static_widths(self, abbr: str) -> tuple[int, ...]:
        """Per-register guaranteed ``enc`` table from the width analysis,
        fed to the ``static_compress`` interpretation."""
        return self.width_analysis(abbr).register_enc

    def _widths_for(self, abbr: str, arch: ArchitectureConfig):
        return self.static_widths(abbr) if arch.static_compression else None

    def summary(self, abbr: str, name: str) -> Any:
        """One benchmark's summary ``name`` (a key of
        :data:`repro.experiments.summary.BUILDERS`).

        Read from its ``summary`` cache entry, or folded by a pass
        (:meth:`_pass`) and stored, then memoized, so a warm run reads
        it without executing the trace.
        """
        from repro.experiments.summary import BUILDERS

        key = self._normalize(abbr)
        if name not in BUILDERS:
            raise KeyError(f"unknown summary {name!r}; known: {', '.join(BUILDERS)}")
        if (key, name) not in self._summaries:
            self._fill(key, (name,), ())
        return self._summaries[(key, name)]

    def _summary_entry(self, key: str, name: str) -> tuple[str, str]:
        """``(stem, fingerprint)`` of one summary entry."""
        return self._stage_stem(key, name), cachekey.summary_fingerprint(
            self._trace_fingerprint(key), name, STAGE_VERSION, WIDTH_ANALYSIS_VERSION
        )

    def _result_entry(self, key: str, arch: ArchitectureConfig) -> tuple[str, str]:
        """``(stem, fingerprint)`` of one (benchmark, architecture)
        result entry."""
        stem = self._stage_stem(key, f"results_{arch.name}")
        return stem, cachekey.stage_fingerprint(
            self._trace_fingerprint(key),
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
        return self._workload(self._normalize(abbr)).launch.warps_per_cta(WARP_SIZE)

    def _fill(
        self, key: str, names: Sequence[str], arches: Sequence[ArchitectureConfig]
    ) -> None:
        """Fill the summaries ``names`` and the results of ``arches`` of
        one benchmark.

        Memoized values stay and current cache entries are read; the
        rest comes from one pass (:meth:`_pass`), which hands each
        table it joins to :meth:`_finish` before it joins the next.
        """
        for name in names:
            if (key, name) not in self._summaries:
                payload = self._load("summary", lambda: self._summary_entry(key, name))
                if payload is not None:
                    self._summaries[(key, name)] = payload
        for arch in arches:
            pair = (key, arch.name)
            if pair not in self._power:
                payload = self._load("result", lambda: self._result_entry(key, arch))
                if payload is not None:
                    self._timing[pair], self._power[pair] = payload
        names = [name for name in names if (key, name) not in self._summaries]
        arches = [arch for arch in arches if (key, arch.name) not in self._power]
        lkey = lowering_key(self.config)
        unbuilt = [
            arch for arch in arches if (key, arch.name, lkey) not in self._op_tables
        ]
        if names or unbuilt:
            self._pass(
                key,
                names,
                unbuilt,
                self.config,
                lambda arch, table: self._finish(key, arch, lambda config: table),
            )
        for arch in arches:
            if (key, arch.name) not in self._power:
                self._finish(
                    key, arch, lambda config, arch=arch: self._table(key, arch, config)
                )

    def _finish(
        self,
        key: str,
        arch: ArchitectureConfig,
        table: Callable[[GpuConfig], TimingOpTable],
    ) -> None:
        """One pair's timing (the SM memo, :meth:`_simulate`, asking
        ``table`` for the op table on a miss) and power, memoized and
        stored as one ``result`` entry."""
        pair = (key, arch.name)
        timing = self._simulate(key, arch, self.config, table)
        accountant = PowerAccountant(arch, self.params, self.config)
        with self.stats.timer("power", benchmark=key, arch=arch.name):
            power = accountant.account_aggregates(self._aggregates[pair], timing)
        self._timing[pair], self._power[pair] = timing, power
        self._store("result", lambda: self._result_entry(key, arch), (timing, power))

    def _pass(
        self,
        key: str,
        names: Sequence[str],
        arches: Sequence[ArchitectureConfig],
        config: GpuConfig,
        use: Callable[[ArchitectureConfig, TimingOpTable], None] | None = None,
    ) -> None:
        """One walk over a benchmark's chunks (:meth:`_chunks`).

        Folds the summaries ``names`` and builds the op tables (under
        ``config``) and power aggregates of ``arches`` through
        :func:`~repro.experiments.streaming.stream_pipeline`.  Each
        summary is memoized and stored.  Then, one architecture at a
        time, the pass joins its table, keys the pair's op-table memo
        entry on ``config``'s :func:`~repro.timing.ops.lowering_key`
        (the digest, and the table too when the pass was one chunk),
        keeps its aggregates on first build and hands the table to
        ``use``; the table is dropped before the next one is joined,
        unless the next architecture's chunk tables are its own, when
        it serves that architecture too, digest and all.
        Counts ``stream_passes``, ``stream_chunks`` and ``op_tables``.
        """
        from repro.experiments.summary import BUILDERS

        run = self.run(key)
        folds = {name: BUILDERS[name](self, key) for name in names}
        self._log(f"passing {key}: {', '.join([*names, *(a.name for a in arches)])}")
        with self.stats.timer("stream", benchmark=key):
            outcome = stream_pipeline(
                self._chunks(run),
                arches,
                run.built.kernel.num_registers,
                config=config,
                static_widths={a.name: self._widths_for(key, a) for a in arches},
                summaries=folds,
            )
        self.stats.bump("stream_passes")
        self.stats.bump("stream_chunks", outcome.num_chunks)
        # Gauges land in the stats registry: the shared one when
        # telemetry is on, else the runner's private registry — so
        # ``--stats-json`` reports them without a telemetry session.
        record_bytes_in_flight(outcome.peak_bytes_in_flight, self.stats.telemetry)
        record_peak_rss(self.stats.telemetry)
        for name, payload in outcome.summaries.items():
            self._summaries[(key, name)] = payload
            self._store("summary", lambda: self._summary_entry(key, name), payload)
        table = digest = None
        for arch, later in zip(arches, [*arches[1:], None]):
            pair = (key, arch.name)
            # A next architecture that lowered every chunk to this one's
            # tables (``gscalar`` after ``gscalar_no_divergent``) takes
            # this table and digest.
            twin = later is not None and all(
                map(
                    operator.is_,
                    outcome.fragments[later.name],
                    outcome.fragments[arch.name],
                )
            )
            if table is None:
                with self.stats.timer("stream", benchmark=key, arch=arch.name):
                    table = outcome.join(arch.name)
                with self.stats.timer("timing", benchmark=key, arch=arch.name):
                    digest = table.digest()
            else:
                del outcome.fragments[arch.name]
            self.stats.bump("op_tables")
            self._op_tables[(*pair, lowering_key(config))] = _OpTable(
                digest, table if outcome.num_chunks == 1 else None
            )
            self._aggregates.setdefault(pair, outcome.aggregates[arch.name])
            if use is not None:
                use(arch, table)
            if not twin:
                table = None

    def _table(
        self, key: str, arch: ArchitectureConfig, config: GpuConfig
    ) -> TimingOpTable:
        """One pair's op table under ``config``: the memo's, or built
        by a pass of its own (again, where the memo kept no table)."""
        entry = self._op_tables.get((key, arch.name, lowering_key(config)))
        if entry is not None and entry.table is not None:
            return entry.table
        joined: list[TimingOpTable] = []
        self._pass(key, (), (arch,), config, lambda arch, table: joined.append(table))
        return joined[0]

    def power_aggregates(self, abbr: str, arch: ArchitectureConfig) -> _PowerAggregates:
        """One pair's power aggregates, memoized with its op table.

        Activity counts depend on neither the energy parameters nor the
        latencies, so the results and every sweep point evaluate this
        one reduction.  Shared: callers must not mutate it.
        """
        pair = (self._normalize(abbr), arch.name)
        if pair not in self._aggregates:
            self._pass(pair[0], (), (arch,), self.config)
        return self._aggregates[pair]

    def simulate_sm(
        self, abbr: str, arch: ArchitectureConfig, config: GpuConfig | None = None
    ) -> TimingResult:
        """SM timing of one pair on ``config`` (default: the runner's)."""
        (timing,) = self.simulate_sm_configs(abbr, arch, (config or self.config,))
        return timing

    def simulate_sm_configs(
        self, abbr: str, arch: ArchitectureConfig, configs: Sequence[GpuConfig]
    ) -> list[TimingResult]:
        """SM timing of one pair on each of ``configs``, through the SM
        memo (:meth:`_simulate`).

        Each configuration's digest and table come from the op-table
        memo, so configurations that share a lowering key (a latency
        sweep's points) lower nothing once the pair is built.  Where the
        memo kept only a digest, the first SM-memo miss passes the pair
        again, and that table serves every other configuration of the
        call.
        """
        key = self._normalize(abbr)
        held: dict[tuple[int, int, int], TimingOpTable] = {}

        def table(config: GpuConfig) -> TimingOpTable:
            lkey = lowering_key(config)
            if lkey not in held:
                held[lkey] = self._table(key, arch, config)
            return held[lkey]

        return [self._simulate(key, arch, config, table) for config in configs]

    def _simulate(
        self,
        key: str,
        arch: ArchitectureConfig,
        config: GpuConfig,
        table: Callable[[GpuConfig], TimingOpTable],
    ) -> TimingResult:
        """Simulate one pair once per distinct engine input.

        The memo key is everything the engine reads: the digest stored
        in the pair's op-table entry, the GPU configuration, the
        architecture's extra pipeline cycles and the benchmark's warps
        per CTA.  So an architecture that lowers to another's table
        (``gscalar_no_divergent`` and ``gscalar``), whole or streamed,
        or a sweep point equal to the runner's configuration, reuses
        that simulation.  ``table(config)`` is asked for only when the
        pair has no entry yet or the SM memo misses.  Counts
        ``sm_runs`` and ``sm_reuses``.
        """
        entry_key = (key, arch.name, lowering_key(config))
        if entry_key not in self._op_tables:
            table(config)
        warps_per_cta = self.warps_per_cta(key)
        memo_key = (
            self._op_tables[entry_key].digest,
            config,
            arch.extra_pipeline_cycles,
            warps_per_cta,
        )
        timing = self._sm_results.get(memo_key)
        if timing is not None:
            self.stats.bump("sm_reuses")
            return timing
        self.stats.bump("sm_runs")
        ops = table(config)
        with self.stats.timer("timing", benchmark=key, arch=arch.name):
            timing = self._sm_results[memo_key] = simulate_warp_ops(
                ops, arch, config, warps_per_cta=warps_per_cta
            )
        return timing

    def timing(self, abbr: str, arch: ArchitectureConfig) -> TimingResult:
        """Cycle-level result for one (benchmark, architecture) pair."""
        key = self._normalize(abbr)
        if (key, arch.name) not in self._timing:
            self._fill(key, (), (arch,))
        return self._timing[(key, arch.name)]

    def timeline(
        self,
        abbr: str,
        arch: ArchitectureConfig,
        recorder,
    ) -> TimingResult:
        """Re-run timing with a flight recorder threaded through.

        Simulates the pair's op table from the op-table memo (or passes
        the pair again where the memo kept no table), but always
        simulates: it never
        replays a result entry or the SM memo — recorded events cannot
        come from a cache — and never stores the result, so the
        recorded run cannot pollute the recorder-free caches.
        """
        key = self._normalize(abbr)
        table = self._table(key, arch, self.config)
        self._log(f"timeline {key} on {arch.name}")
        self.stats.bump("sm_runs")
        with self.stats.timer("timeline", benchmark=key, arch=arch.name):
            return simulate_warp_ops(
                table,
                arch,
                self.config,
                warps_per_cta=self.warps_per_cta(key),
                recorder=recorder,
            )

    def power(self, abbr: str, arch: ArchitectureConfig) -> PowerReport:
        """Power report for one (benchmark, architecture) pair."""
        key = self._normalize(abbr)
        if (key, arch.name) not in self._power:
            self._fill(key, (), (arch,))
        return self._power[(key, arch.name)]

    # ------------------------------------------------------------------
    # Matrix prefetch (the parallel experiment engine's front door).
    # ------------------------------------------------------------------
    def prefetch(
        self,
        names: Sequence[str] | None = None,
        jobs: int = 1,
        experiments: Sequence[str] = (),
        arches: Sequence[ArchitectureConfig] | None = None,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> RunnerStats:
        """Warm the summaries ``experiments`` names (keys of
        :data:`repro.experiments.summary.BUILDERS`) and the results of
        ``arches`` (default: the four paper architectures) for each
        benchmark, passing each benchmark once for whatever its memos
        and cache entries do not hold (:meth:`_pass`).

        With ``jobs > 1`` the benchmarks fan out over a process pool
        (:func:`repro.experiments.parallel.run_matrix`).  Each worker
        returns its benchmark's summaries and (timing, power) pairs,
        which go into this runner's memos, so the parent reads nothing
        back from disk.  With ``cache_dir`` set, the workers also store
        their entries, and benchmarks whose entries are all current on
        disk are not dispatched at all (they are read on demand).
        Worker statistics merge into :attr:`stats` and the merged stats
        are returned.

        Each benchmark ends with :meth:`_release`: its trace and memory
        image are dropped (serially, right after its pass), so the
        runner holds one benchmark's trace at a time, and a later
        :meth:`run` executes again.
        """
        wanted = [self._normalize(name) for name in (names or self.benchmark_names())]
        experiments = tuple(experiments)
        arch_list = tuple(arches) if arches is not None else paper_architectures()
        jobs = max(1, int(jobs))
        if progress is None and self.verbose:
            progress = lambda abbr, done, total: self._log(
                f"prefetch {done}/{total}: {abbr}"
            )
        with self.stats.timer("prefetch"):
            if jobs == 1 or len(wanted) <= 1:
                for index, abbr in enumerate(wanted):
                    self._fill(abbr, experiments, arch_list)
                    self._release(abbr)
                    if progress is not None:
                        progress(abbr, index + 1, len(wanted))
            else:
                from repro.experiments.parallel import run_matrix

                pending = []
                for abbr in wanted:
                    if self.cache_dir is None or not self._cached(
                        abbr, experiments, arch_list
                    ):
                        pending.append(abbr)
                    self._release(abbr)
                if pending:
                    payloads = run_matrix(
                        names=pending,
                        scale=self.scale.name,
                        cache_dir=self.cache_dir,
                        jobs=jobs,
                        experiments=experiments,
                        arches=arch_list,
                        config=self.config,
                        params=self.params,
                        progress=progress,
                        telemetry=get_telemetry().enabled,
                        chunk_events=self.chunk_events,
                    )
                    for payload in payloads:
                        self.stats.merge(payload)
                        self._summaries.update(payload["summaries"])
                        self._timing.update(payload["timing"])
                        self._power.update(payload["power"])
        return self.stats

    def _release(self, key: str) -> None:
        """Drop what only a pass reads: the benchmark's run (its trace)
        and its workload's memory image, which execution has mutated.

        The kernel, the launch and the trace fingerprint stay (a cached
        runner derives the fingerprint first), so later requests key
        their entries as before; one that needs a pass builds and
        executes the workload again (:meth:`run`).
        """
        self._runs.pop(key, None)
        built = self._workloads.get(key)
        if built is not None and built.memory is not None:
            if self.cache_dir is not None:
                self._trace_fingerprint(key)
            self._workloads[key] = replace(built, memory=None)

    def _cached(
        self,
        key: str,
        experiments: Sequence[str],
        arches: Sequence[ArchitectureConfig],
    ) -> bool:
        """Whether every entry a prefetch of ``key`` warms is current on
        disk (headers only: no payload is read)."""
        entries = [
            (*self._summary_entry(key, name), "summary") for name in experiments
        ] + [(*self._result_entry(key, arch), "result") for arch in arches]
        return all(
            store.entry_is_current(self.cache_dir, *entry) for entry in entries
        )
