"""Simulator configuration (the paper's Table 1) and architecture knobs.

The baseline machine mirrors the paper's GTX-480-like setup: 15 SMs,
128 KB of registers per SM (1024 vector registers of 32 x 4 bytes), a
16-bank register file, two warp schedulers, 16-wide SIMT execution and a
4-lane SFU.  :class:`GpuConfig` carries those structural parameters;
:class:`ArchitectureConfig` selects which G-Scalar mechanisms are active
so the same machinery can model the baseline, the prior ALU-scalar
architecture and both G-Scalar variants.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class SchedulerPolicy(enum.Enum):
    """Warp scheduler policy used by each of the SM's schedulers."""

    GTO = "gto"
    LRR = "lrr"


@dataclass(frozen=True)
class GpuConfig:
    """Structural machine parameters (defaults reproduce Table 1)."""

    num_sms: int = 15
    sm_frequency_ghz: float = 1.4
    noc_frequency_ghz: float = 0.7
    warp_size: int = 32
    threads_per_sm: int = 1536
    ctas_per_sm: int = 8
    registers_per_sm_bytes: int = 128 * 1024
    register_file_banks: int = 16
    operand_collectors_per_sm: int = 16
    schedulers_per_sm: int = 2
    simt_width: int = 16
    alu_pipelines: int = 2
    mem_pipelines: int = 1
    sfu_pipelines: int = 1
    sfu_width: int = 4
    l1_cache_bytes: int = 16 * 1024
    l2_cache_bytes: int = 768 * 1024
    memory_channels: int = 6
    #: Loose round-robin is GPGPU-Sim 3.x's classic default and gives
    #: the most stable cycle counts in this model; greedy-then-oldest
    #: (GTO) is available for scheduler studies.
    scheduler_policy: SchedulerPolicy = SchedulerPolicy.LRR
    #: Base write-back latencies in cycles after dispatch completes
    #: (sweepable via experiments/sensitivity.py).
    alu_latency: int = 18
    long_alu_latency: int = 120
    sfu_latency: int = 22
    ctrl_latency: int = 10

    def __post_init__(self) -> None:
        if self.warp_size % 2 != 0 or self.warp_size < 2:
            raise ConfigError(f"warp_size must be an even integer >= 2, got {self.warp_size}")
        if self.simt_width < 1 or self.sfu_width < 1:
            raise ConfigError("pipeline widths must be positive")
        if self.register_file_banks < 1:
            raise ConfigError("register_file_banks must be positive")
        if self.threads_per_sm % self.warp_size != 0:
            raise ConfigError(
                f"threads_per_sm ({self.threads_per_sm}) must be a multiple of "
                f"warp_size ({self.warp_size})"
            )
        for name in ("alu_latency", "long_alu_latency", "sfu_latency", "ctrl_latency"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps on one SM."""
        return self.threads_per_sm // self.warp_size

    @property
    def vector_registers_per_sm(self) -> int:
        """Number of warp-wide vector registers in the register file."""
        return self.registers_per_sm_bytes // (self.warp_size * 4)

    @property
    def vector_registers_per_bank(self) -> int:
        """Vector registers held by each register-file bank."""
        return self.vector_registers_per_sm // self.register_file_banks

    @property
    def alu_dispatch_cycles(self) -> int:
        """Cycles to dispatch one full warp down a 16-lane ALU pipeline."""
        return max(1, self.warp_size // self.simt_width)

    @property
    def sfu_dispatch_cycles(self) -> int:
        """Cycles to dispatch one full warp down the narrow SFU pipeline."""
        return max(1, self.warp_size // self.sfu_width)


class ScalarMode(enum.Enum):
    """Which classes of instruction an architecture may scalarize."""

    NONE = "none"
    ALU_ONLY = "alu_only"
    ALL_PIPELINES = "all_pipelines"


@dataclass(frozen=True)
class ArchitectureConfig:
    """Feature switches selecting one of the evaluated architectures.

    The four configurations used throughout the paper's evaluation are
    available as the constructors :meth:`baseline`, :meth:`alu_scalar`,
    :meth:`gscalar_no_divergent` and :meth:`gscalar`.
    """

    name: str
    scalar_mode: ScalarMode
    register_compression: bool
    half_register_compression: bool
    half_warp_scalar: bool
    divergent_scalar: bool
    dedicated_scalar_rf: bool
    extra_pipeline_cycles: int
    #: When True, a scalar-executed instruction occupies its pipeline's
    #: dispatch port for a single cycle (one active lane) instead of the
    #: full multi-cycle warp pass.  The paper treats this as a possible
    #: extension (§6) but evaluates G-Scalar *without* it — Figure 11's
    #: IPC series shows only the 3-cycle latency penalty — so it
    #: defaults to False and exists for the ablation benchmarks.
    scalar_fast_dispatch: bool = False
    #: Compile-time register compression (Angerd/Sintorn/Stenström,
    #: arXiv:2006.05693): registers the static width analysis proves
    #: narrow are stored/fetched compressed, with *no* runtime detection
    #: hardware (no comparator energy, no BVR/EBR sidecar).  Mutually
    #: exclusive with the dynamic compression mechanisms.
    static_compression: bool = False

    def __post_init__(self) -> None:
        if self.half_warp_scalar and not self.half_register_compression:
            raise ConfigError(
                f"{self.name}: half-warp scalar execution requires "
                "half-register compression (the second BVR/EBR pair)"
            )
        if self.divergent_scalar and self.scalar_mode is ScalarMode.NONE:
            raise ConfigError(f"{self.name}: divergent scalar requires scalar execution")
        if self.divergent_scalar and not self.register_compression:
            raise ConfigError(
                f"{self.name}: divergent scalar detection reuses the "
                "compression encoder and therefore requires compression"
            )
        if self.extra_pipeline_cycles < 0:
            raise ConfigError(f"{self.name}: extra_pipeline_cycles must be >= 0")
        if self.static_compression and self.register_compression:
            raise ConfigError(
                f"{self.name}: static compression replaces the dynamic "
                "detector; enabling both would double-count the RF savings"
            )
        if self.static_compression and self.dedicated_scalar_rf:
            raise ConfigError(
                f"{self.name}: static compression models the shared vector "
                "RF; a dedicated scalar RF has no compressed storage"
            )

    @staticmethod
    def baseline() -> "ArchitectureConfig":
        """The unmodified GTX-480-like GPU."""
        return ArchitectureConfig(
            name="baseline",
            scalar_mode=ScalarMode.NONE,
            register_compression=False,
            half_register_compression=False,
            half_warp_scalar=False,
            divergent_scalar=False,
            dedicated_scalar_rf=False,
            extra_pipeline_cycles=0,
        )

    @staticmethod
    def alu_scalar() -> "ArchitectureConfig":
        """Prior scalar architecture [Gilani et al., HPCA 2013].

        Scalar execution of non-divergent arithmetic/logic instructions
        only, backed by a single-bank dedicated scalar register file.
        """
        return ArchitectureConfig(
            name="alu_scalar",
            scalar_mode=ScalarMode.ALU_ONLY,
            register_compression=False,
            half_register_compression=False,
            half_warp_scalar=False,
            divergent_scalar=False,
            dedicated_scalar_rf=True,
            extra_pipeline_cycles=0,
        )

    @staticmethod
    def gscalar_no_divergent() -> "ArchitectureConfig":
        """G-Scalar restricted to non-divergent instructions.

        Scalar execution on all three pipeline types (ALU, memory, SFU)
        plus half-warp scalar, but without the divergent-scalar
        extension.  This is the paper's "G-Scalar w/o divergent" series.
        """
        return ArchitectureConfig(
            name="gscalar_no_divergent",
            scalar_mode=ScalarMode.ALL_PIPELINES,
            register_compression=True,
            half_register_compression=True,
            half_warp_scalar=True,
            divergent_scalar=False,
            dedicated_scalar_rf=False,
            extra_pipeline_cycles=3,
        )

    @staticmethod
    def gscalar() -> "ArchitectureConfig":
        """Full G-Scalar: all pipelines, half-warp and divergent scalar."""
        return ArchitectureConfig(
            name="gscalar",
            scalar_mode=ScalarMode.ALL_PIPELINES,
            register_compression=True,
            half_register_compression=True,
            half_warp_scalar=True,
            divergent_scalar=True,
            dedicated_scalar_rf=False,
            extra_pipeline_cycles=3,
        )

    @staticmethod
    def static_compress() -> "ArchitectureConfig":
        """Statically-compressed register file (not in the paper).

        The compile-time counterpart to G-Scalar's dynamic detector
        (ROADMAP architecture-variants item (a), after
        Angerd/Sintorn/Stenström, arXiv:2006.05693): only registers the
        ``repro.analysis.static_.widths`` pass *proves* narrow are
        stored compressed.  Reads of proven-narrow registers fetch the
        compressed bytes and expand through the decompressor; writes
        never pay detection energy because the width is a compile-time
        fact.  No scalar execution, no sidecar metadata — the encoding
        is in the program text.  The 3-cycle pipeline stretch models the
        decompress stage, matching the dynamic variants.
        """
        return ArchitectureConfig(
            name="static_compress",
            scalar_mode=ScalarMode.NONE,
            register_compression=False,
            half_register_compression=False,
            half_warp_scalar=False,
            divergent_scalar=False,
            dedicated_scalar_rf=False,
            extra_pipeline_cycles=3,
            static_compression=True,
        )

    def replace(self, **changes: object) -> "ArchitectureConfig":
        """Return a copy with the given fields changed (for ablations)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


#: The four architectures evaluated in the paper's Figure 11, in the
#: order they appear there.
EVALUATED_ARCHITECTURES = (
    ArchitectureConfig.baseline(),
    ArchitectureConfig.alu_scalar(),
    ArchitectureConfig.gscalar_no_divergent(),
    ArchitectureConfig.gscalar(),
)

#: All modeled architectures: the paper's four plus the repo-grown
#: static-compression design point (kept out of the figure-faithful
#: :data:`EVALUATED_ARCHITECTURES` tuple so the paper's charts keep
#: their four series).
ALL_ARCHITECTURES = EVALUATED_ARCHITECTURES + (
    ArchitectureConfig.static_compress(),
)


def architecture_by_name(name: str) -> ArchitectureConfig:
    """Look up one of the modeled architectures by its name."""
    for arch in ALL_ARCHITECTURES:
        if arch.name == name:
            return arch
    known = ", ".join(a.name for a in ALL_ARCHITECTURES)
    raise ConfigError(f"unknown architecture {name!r}; known: {known}")
