"""Content fingerprints for the on-disk experiment cache.

A cached artifact is only as trustworthy as its key.  The original
cache keyed traces by ``{benchmark}_{scale}`` alone, so editing a
workload kernel (or changing the trace format) silently replayed stale
traces.  This module derives a short hex *fingerprint* from everything
a cached stage actually depends on:

* **traces** — the kernel's full static content (blocks, instructions,
  terminators), the scale parameters, the warp size and the on-disk
  trace format version;
* **classified columns** — the trace fingerprint plus the stage
  version;
* **processed columns** — the same plus the architecture and GPU
  configuration;
* **timing/power results** — the trace fingerprint, the architecture
  configuration, the GPU configuration, the energy parameters and the
  stage version.

Fingerprints are embedded in each entry's manifest (not in its name),
so a stale artifact is detected at load time and transparently
re-executed and overwritten rather than replayed.

Version-bump note: the columnar trace format
(:data:`repro.simt.serialize._FORMAT_VERSION`) and the stage version
(``STAGE_VERSION`` in :mod:`repro.experiments.runner`) each invalidate
the corresponding cached artifacts — entries from older checkouts fail
their fingerprint or version check on load and are transparently
re-executed, never misread.

Everything is canonicalized to JSON before hashing: dataclasses become
``{type, fields}`` maps, enums become ``{type, name}`` maps, and dict
keys are sorted, so the fingerprint is stable across processes and
insertion orders but changes whenever any field of any input changes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa.kernel import Kernel
from repro.power.energy import EnergyParams
from repro.workloads.registry import ScaleConfig

#: Length of the hex digest kept in cache headers.  64 bits of SHA-256
#: is far beyond collision risk for a cache with tens of entries.
DIGEST_CHARS = 16


def _canonical(obj: Any) -> Any:
    """Convert ``obj`` to a deterministic JSON-serializable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(item) for item in obj)
    # numpy scalars and anything else with .item(); last resort is repr.
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """Hash arbitrary canonicalizable parts into a short hex digest."""
    payload = json.dumps(
        [_canonical(part) for part in parts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:DIGEST_CHARS]


def kernel_fingerprint(kernel: Kernel) -> str:
    """Fingerprint of a kernel's full static content.

    Covers every instruction, operand, terminator and the kernel name,
    so editing a workload kernel invalidates its cached traces.
    """
    blocks = [
        (
            block.block_id,
            [_canonical(inst) for inst in block.instructions],
            _canonical(block.terminator),
        )
        for block in kernel.blocks
    ]
    return fingerprint("kernel", kernel.name, kernel.num_registers, blocks)


def trace_fingerprint(kernel: Kernel, scale: ScaleConfig, warp_size: int) -> str:
    """Fingerprint identifying one functional trace.

    Includes the on-disk format version, so bumping
    :data:`repro.simt.serialize._FORMAT_VERSION` invalidates every
    cached trace at once.
    """
    from repro.simt.serialize import _FORMAT_VERSION

    return fingerprint(
        "trace", _FORMAT_VERSION, kernel_fingerprint(kernel), scale, warp_size
    )


def columns_fingerprint(trace_fp: str, stage_version: int) -> str:
    """Fingerprint identifying one :class:`ClassifiedColumns` bank set
    (a pure function of the trace and the stage version)."""
    return fingerprint("ccols", stage_version, trace_fp)


def processed_fingerprint(
    trace_fp: str,
    arch: ArchitectureConfig,
    config: GpuConfig,
    stage_version: int,
    analysis_version: int | None = None,
) -> str:
    """Fingerprint identifying one :class:`ProcessedColumns` bank set.

    Processed columns depend on the architecture interpretation but not
    on the energy parameters — unlike :func:`stage_fingerprint` for the
    timing/power results — so they get their own, narrower closure:
    re-costing energy reuses the processed banks.
    """
    parts = ["pcols", stage_version, trace_fp, arch, config]
    if analysis_version is not None:
        parts.append(("analysis", analysis_version))
    return fingerprint(*parts)


def stage_fingerprint(
    trace_fp: str,
    arch: ArchitectureConfig,
    config: GpuConfig,
    params: EnergyParams,
    stage_version: int,
    analysis_version: int | None = None,
) -> str:
    """Fingerprint identifying one (benchmark, architecture) result pair.

    Timing depends on the architecture and GPU configuration; power
    additionally depends on the energy parameters.  Both live in one
    ``result`` entry, so the fingerprint covers the union.  ``analysis_version``
    keys results that consume a static-analysis artifact (the width
    analysis feeding ``static_compress``) to that analysis's version,
    so tightening a transfer function invalidates exactly the results
    it can change.
    """
    parts = ["stage", stage_version, trace_fp, arch, config, params]
    if analysis_version is not None:
        parts.append(("analysis", analysis_version))
    return fingerprint(*parts)
