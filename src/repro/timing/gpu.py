"""End-to-end timing convenience layer.

The evaluation simulates one SM's worth of warps (the paper's per-SM
statistics scale symmetrically to 15 SMs since the proxies are
homogeneous across CTAs).  :func:`simulate_architecture_columns` lowers
a columnar processed trace to a :class:`~repro.timing.ops.TimingOpTable`
and runs the SM model with the architecture's extra pipeline latency;
:func:`simulate_architecture` is its per-event oracle.
"""

from __future__ import annotations

from repro.config import ArchitectureConfig, GpuConfig
from repro.scalar.architectures import ProcessedEvent
from repro.timing.ops import (
    TimingOp,
    TimingOpTable,
    build_timing_ops,
    build_timing_ops_columns,
)
from repro.timing.sm import TimingResult
from repro.timing.sm_event import DEFAULT_SM_ENGINE, create_sm_simulator


def lower_to_timing_ops(
    processed: list[list[ProcessedEvent]],
    arch: ArchitectureConfig,
    config: GpuConfig,
    warp_size: int,
) -> list[list[TimingOp]]:
    """Lower every warp's processed events to timing ops."""
    return [
        build_timing_ops(warp_events, arch, config, warp_size)
        for warp_events in processed
    ]


def simulate_architecture(
    processed: list[list[ProcessedEvent]],
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warp_size: int = 32,
    warps_per_cta: int | None = None,
    sm_engine: str = DEFAULT_SM_ENGINE,
    recorder=None,
) -> TimingResult:
    """Run the SM timing model for one architecture's processed trace.

    ``warps_per_cta`` enables CTA-barrier coordination for kernels that
    use ``bar.sync``; without it each warp is treated as its own CTA.
    ``sm_engine`` selects the SM timing engine (``"event"`` or the
    ``"cycle"`` reference model; they are differentially tested to
    produce bit-identical results).  ``recorder`` (a
    :class:`repro.obs.timeline.FlightRecorder`) opts into per-warp
    lifecycle recording.
    """
    config = config or GpuConfig()
    warp_ops = lower_to_timing_ops(processed, arch, config, warp_size)
    return simulate_warp_ops(
        TimingOpTable.from_ops(warp_ops),
        arch,
        config,
        warps_per_cta=warps_per_cta,
        sm_engine=sm_engine,
        recorder=recorder,
    )


def simulate_architecture_columns(
    ccols,
    pcols,
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warps_per_cta: int | None = None,
    sm_engine: str = DEFAULT_SM_ENGINE,
    recorder=None,
) -> TimingResult:
    """Columnar counterpart of :func:`simulate_architecture`.

    The SM model itself is representation-independent; only the
    lowering differs.  Produces the same :class:`TimingResult` as the
    event path for the same stream.
    """
    config = config or GpuConfig()
    return simulate_warp_ops(
        build_timing_ops_columns(ccols, pcols, arch, config),
        arch,
        config,
        warps_per_cta=warps_per_cta,
        sm_engine=sm_engine,
        recorder=recorder,
    )


def simulate_warp_ops(
    table: TimingOpTable,
    arch: ArchitectureConfig,
    config: GpuConfig | None = None,
    warps_per_cta: int | None = None,
    sm_engine: str = DEFAULT_SM_ENGINE,
    recorder=None,
) -> TimingResult:
    """Run the SM timing model over a lowered op table.

    The chunk-streaming pipeline lowers one table per chunk
    (:func:`build_timing_ops_columns` is a pure per-event function, so
    fragment lowering is exact) and joins them with
    :meth:`TimingOpTable.concat`; this entry point runs the simulation
    once over the joined table — both SM engines schedule whole warps,
    so this is the one whole-trace barrier the stream keeps.
    """
    config = config or GpuConfig()
    simulator = create_sm_simulator(
        sm_engine,
        table,
        config,
        extra_latency=arch.extra_pipeline_cycles,
        warps_per_cta=warps_per_cta,
        recorder=recorder,
    )
    return simulator.run()
