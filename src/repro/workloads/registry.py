"""The 17-benchmark registry (the paper's Table 2).

Each entry is a proxy kernel written in the :mod:`repro.isa` DSL whose
dynamic behaviour — divergence shape, operand-value similarity, pipeline
mix — matches the published signature of the corresponding
Rodinia/Parboil benchmark (see each module's docstring and DESIGN.md's
substitution table).

Workloads are built at a :class:`ScaleConfig`; ``tiny`` keeps unit
tests fast, ``default`` is what the figure regenerators use.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.isa.kernel import Kernel
from repro.simt.grid import LaunchConfig
from repro.simt.memory_state import MemoryImage


@dataclass(frozen=True)
class ScaleConfig:
    """Problem-size knobs shared by all workloads.

    ``synthetic_events``, when non-zero, marks the scale as a
    *synthetic tier*: the workload's kernel is executed once at the
    scale's grid/CTA dimensions to produce a seed trace, which
    :mod:`repro.workloads.synth` then replicates (with seeded
    per-replica value/address perturbation) until the stream reaches
    at least ``synthetic_events`` events — the streaming pipeline's
    10^6+-event large tier, generated without ever executing (or
    materializing) a million-event trace.
    """

    name: str
    grid_dim: int
    cta_dim: int
    inner_iterations: int
    synthetic_events: int = 0

    def __post_init__(self) -> None:
        if self.grid_dim < 1 or self.cta_dim < 1 or self.inner_iterations < 1:
            raise WorkloadError("scale parameters must be >= 1")
        if self.synthetic_events < 0:
            raise WorkloadError("synthetic_events must be >= 0")


SCALES: dict[str, ScaleConfig] = {
    "tiny": ScaleConfig(name="tiny", grid_dim=1, cta_dim=64, inner_iterations=2),
    "small": ScaleConfig(name="small", grid_dim=4, cta_dim=128, inner_iterations=4),
    "default": ScaleConfig(name="default", grid_dim=4, cta_dim=256, inner_iterations=8),
    "large": ScaleConfig(
        name="large",
        grid_dim=8,
        cta_dim=256,
        inner_iterations=16,
        synthetic_events=1_100_000,
    ),
}


@dataclass
class BuiltWorkload:
    """A ready-to-run workload: kernel + launch + initialized memory.

    ``memory`` is ``None`` once an
    :class:`~repro.experiments.runner.ExperimentRunner` has released it
    after the benchmark's pass.
    """

    kernel: Kernel
    launch: LaunchConfig
    memory: MemoryImage | None
    description: str


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one benchmark."""

    name: str
    abbr: str
    suite: str
    builder: Callable[[ScaleConfig], BuiltWorkload]
    memory_intensive: bool = False
    low_occupancy: bool = False


def _specs() -> list[WorkloadSpec]:
    # Imported lazily so the registry module has no import-time
    # dependency on every workload module.
    from repro.workloads.parboil import acf, cc, lbm, mg, mm, mq, mv, sad, st
    from repro.workloads.rodinia import bp, bt, hs, hw, lc, pf, sr1, sr2

    return [
        WorkloadSpec("b+tree", "BT", "Rodinia", bt.build),
        WorkloadSpec("backprop", "BP", "Rodinia", bp.build),
        WorkloadSpec("heartwall", "HW", "Rodinia", hw.build),
        WorkloadSpec("hotspot", "HS", "Rodinia", hs.build),
        WorkloadSpec("leukocyte", "LC", "Rodinia", lc.build, low_occupancy=True),
        WorkloadSpec("pathfinder", "PF", "Rodinia", pf.build),
        WorkloadSpec("srad_1", "SR1", "Rodinia", sr1.build),
        WorkloadSpec("srad_2", "SR2", "Rodinia", sr2.build),
        WorkloadSpec("cutcp", "CC", "Parboil", cc.build),
        WorkloadSpec("lbm", "LBM", "Parboil", lbm.build, memory_intensive=True),
        WorkloadSpec("mri-grid", "MG", "Parboil", mg.build, memory_intensive=True),
        WorkloadSpec("mri-q", "MQ", "Parboil", mq.build),
        WorkloadSpec("sad", "SAD", "Parboil", sad.build),
        WorkloadSpec("sgemm", "MM", "Parboil", mm.build),
        WorkloadSpec("spmv", "MV", "Parboil", mv.build, memory_intensive=True),
        WorkloadSpec("stencil", "ST", "Parboil", st.build),
        WorkloadSpec("tpacf", "ACF", "Parboil", acf.build),
    ]


_REGISTRY: dict[str, WorkloadSpec] | None = None


def all_workloads() -> list[WorkloadSpec]:
    """All 17 benchmarks in Table 2 order (Rodinia, then Parboil)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {spec.abbr.lower(): spec for spec in _specs()}
    return list(_REGISTRY.values())


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up a workload by abbreviation (``BP``) or full name."""
    wanted = name.strip().lower()
    for spec in all_workloads():
        if wanted in (spec.abbr.lower(), spec.name.lower()):
            return spec
    known = ", ".join(s.abbr for s in all_workloads())
    raise WorkloadError(f"unknown workload {name!r}; known: {known}")


def build_workload(name: str, scale: str = "default") -> BuiltWorkload:
    """Build one benchmark at a named scale."""
    if scale not in SCALES:
        raise WorkloadError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    return workload_by_name(name).builder(SCALES[scale])
