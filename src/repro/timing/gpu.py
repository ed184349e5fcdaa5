"""End-to-end timing convenience layer.

The evaluation simulates one SM's worth of warps (the paper's per-SM
statistics scale symmetrically to 15 SMs since the proxies are
homogeneous across CTAs).  :func:`simulate_architecture_columns` lowers
a columnar processed trace to a :class:`~repro.timing.ops.TimingOpTable`
and runs the event-driven SM model with the architecture's extra
pipeline latency.
"""

from __future__ import annotations

from repro.config import ArchitectureConfig, GpuConfig
from repro.timing.ops import TimingOpTable, build_timing_ops_columns
from repro.timing.sm import TimingResult
from repro.timing.sm_event import EventSmSimulator


def simulate_architecture_columns(
    ccols,
    pcols,
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warps_per_cta: int | None = None,
    recorder=None,
) -> TimingResult:
    """Lower a columnar processed trace and run the SM timing model.

    ``warps_per_cta`` enables CTA-barrier coordination for kernels that
    use ``bar.sync``; without it each warp is treated as its own CTA.
    ``recorder`` (a :class:`repro.obs.timeline.FlightRecorder`) opts
    into per-warp lifecycle recording.
    """
    config = config or GpuConfig()
    return simulate_warp_ops(
        build_timing_ops_columns(ccols, pcols, arch, config),
        arch,
        config,
        warps_per_cta=warps_per_cta,
        recorder=recorder,
    )


def simulate_warp_ops(
    table: TimingOpTable,
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warps_per_cta: int | None = None,
    recorder=None,
) -> TimingResult:
    """Run the event-driven SM timing model over a lowered op table.

    The table is whole: lowered from whole-trace columns, or joined
    from a chunk stream's per-chunk tables by
    :meth:`TimingOpTable.concat` (lowering is per event, so both are
    the same table).  The SM engine schedules whole warps, so this is
    the one whole-trace barrier a streamed pass keeps.  The engine
    compiles the table's rows a block of CTAs at a time as they
    activate and frees them at retirement, so past the table itself
    it holds only the resident CTAs' rows and one compile block.  The
    runner's SM memo calls it once per distinct table digest
    (:meth:`TimingOpTable.digest`), whole or streamed.
    """
    return EventSmSimulator(
        table,
        config or GpuConfig(),
        extra_latency=arch.extra_pipeline_cycles,
        warps_per_cta=warps_per_cta,
        recorder=recorder,
    ).run()
