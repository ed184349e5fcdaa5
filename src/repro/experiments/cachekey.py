"""Content fingerprints for the on-disk experiment cache.

A cached artifact is only as trustworthy as its key.  The original
cache keyed traces by ``{benchmark}_{scale}`` alone, so editing a
workload kernel silently replayed stale data.  This module derives a
short hex *fingerprint* from everything a cached stage actually
depends on:

* **traces** — the kernel's name, register count and disassembly
  (every block id, instruction, operand and terminator), the launch
  configuration, the digest of the input arrays the workload bound
  into memory (:attr:`~repro.simt.memory_state.MemoryImage.bind_digest`),
  the scale parameters and the warp size.  Traces are never cached;
  their fingerprint is the root every entry derives from, so editing a
  workload's kernel, its inputs (a datagen seed or density) or its
  launch invalidates every entry of that benchmark;
* **summaries** — the trace fingerprint, the summary name, the
  energy parameters and the stage and width-analysis versions;
* **timing/power results** — the trace fingerprint, the architecture
  configuration, the GPU configuration, the energy parameters and the
  stage version.

Fingerprints are embedded in each entry's header (not in its name),
so a stale artifact is detected at load time and transparently
recomputed and overwritten rather than replayed.  Bumping the stage
version (``STAGE_VERSION`` in :mod:`repro.experiments.runner`)
invalidates every entry at once.

Everything is canonicalized to JSON before hashing: dataclasses become
``{type, fields}`` maps, enums become ``{type, name}`` maps, and dict
keys are sorted, so the fingerprint is stable across processes and
insertion orders but changes whenever any field of any input changes.
The frozen configuration parts are encoded once per distinct value and
reused, so a warm run hashes its few hundred keys without walking the
same configuration again for each one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.config import ArchitectureConfig, GpuConfig
from repro.isa.disasm import disassemble
from repro.isa.kernel import Kernel
from repro.power.energy import EnergyParams
from repro.simt.grid import LaunchConfig
from repro.workloads.registry import BuiltWorkload, ScaleConfig

#: Length of the hex digest kept in cache headers.  64 bits of SHA-256
#: is far beyond collision risk for a cache with tens of entries.
DIGEST_CHARS = 16

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Frozen configuration types whose JSON text is kept per distinct value.
_CONFIG_TYPES = (ArchitectureConfig, EnergyParams, GpuConfig, LaunchConfig, ScaleConfig)

#: JSON text of each configuration value seen, keyed on its type and
#: repr.  The repr spells every field's value with its type, so equal
#: values that encode differently (``1`` and ``1.0``) never share text.
_CONFIG_TEXT: dict[tuple[type, str], str] = {}


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


def _encode(part: Any) -> str:
    """``part``'s canonical JSON text, kept per value for configurations."""
    if not isinstance(part, _CONFIG_TYPES):
        return _JSON.encode(_canonical(part))
    key = (type(part), repr(part))
    if key not in _CONFIG_TEXT:
        _CONFIG_TEXT[key] = _JSON.encode(_canonical(part))
    return _CONFIG_TEXT[key]


def fingerprint(*parts: Any) -> str:
    """Hash arbitrary canonicalizable parts into a short hex digest.

    The hashed text is the JSON list of the parts, joined from each
    part's own text: the same text as ``json.dumps`` of the whole list.
    """
    payload = "[" + ",".join(_encode(part) for part in parts) + "]"
    return hashlib.sha256(payload.encode()).hexdigest()[:DIGEST_CHARS]


def kernel_fingerprint(kernel: Kernel) -> str:
    """Fingerprint of a kernel's full static content.

    Covers the kernel name, its register count and its disassembly,
    which renders every block id, instruction (opcode, destination and
    sources) and terminator, so editing a workload kernel invalidates
    its cached traces.
    """
    return fingerprint("kernel", kernel.name, kernel.num_registers, disassemble(kernel))


def trace_fingerprint(built: BuiltWorkload, scale: ScaleConfig, warp_size: int) -> str:
    """Fingerprint identifying one functional trace.

    Covers the kernel, the launch, the input arrays bound into the
    workload's memory image (with its strict flag), the scale and the
    warp size.  The memory digest describes the image as built, so it
    is the same before and after the trace executes.
    """
    return fingerprint(
        "trace",
        kernel_fingerprint(built.kernel),
        built.launch,
        built.memory.bind_digest,
        scale,
        warp_size,
    )


def summary_fingerprint(
    trace_fp: str,
    name: str,
    params: EnergyParams,
    stage_version: int,
    analysis_version: int,
) -> str:
    """Fingerprint identifying one benchmark's summary ``name``.  The
    energy parameters key fig12's replayed ``wc_bdi``
    energy; ``analysis_version`` keys the width-analysis numbers of
    extras and staticdyn."""
    return fingerprint(
        "summary", stage_version, trace_fp, name, params, analysis_version
    )


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
