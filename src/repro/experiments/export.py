"""Machine-readable export of experiment results.

``python -m repro <exp> --json out.json`` writes the computed data as
JSON so external tooling (plotting, regression tracking, CI dashboards)
can consume the reproduction without parsing text tables.  Every
exporter emits plain dict/list/float structures plus a small metadata
envelope (experiment name, scale, paper reference values).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.similarity import CATEGORIES
from repro.experiments import extras as extras_mod
from repro.experiments import fig1, fig8, fig9, fig10, fig11, fig12, staticdyn
from repro.scalar.eligibility import ScalarClass


def fig1_to_dict(data: "fig1.Fig1Data") -> dict:
    return {
        "benchmarks": {
            row.abbr: {
                "divergent_fraction": row.stats.divergent_fraction,
                "divergent_scalar_fraction": row.stats.fraction(
                    ScalarClass.DIVERGENT_SCALAR
                ),
            }
            for row in data.rows
        },
        "average_divergent": data.average_divergent,
        "average_divergent_scalar": data.average_divergent_scalar,
        "paper": {"average_divergent": 0.28, "scalar_share_of_divergent": 0.45},
    }


def fig8_to_dict(data: "fig8.Fig8Data") -> dict:
    return {
        "benchmarks": {
            row.abbr: row.distribution.fractions() for row in data.rows
        },
        "average": data.average_fractions(),
        "categories": list(CATEGORIES),
        "paper": {"scalar": 0.36, "3-byte": 0.17, "2-byte": 0.04, "1-byte": 0.07},
    }


def fig9_to_dict(data: "fig9.Fig9Data") -> dict:
    return {
        "benchmarks": {
            row.abbr: {
                "alu_scalar": row.alu_scalar,
                "sfu_mem_scalar": row.sfu_mem_scalar,
                "half_scalar": row.half_scalar,
                "divergent_scalar": row.divergent_scalar,
                "total": row.total_eligible,
            }
            for row in data.rows
        },
        "average_alu_scalar": data.average_alu_scalar,
        "average_total": data.average_total,
        "paper": {"alu_scalar": 0.22, "total": 0.40},
    }


def fig10_to_dict(data: "fig10.Fig10Data") -> dict:
    return {
        "benchmarks": {
            row.abbr: {
                "warp32": row.fraction_warp32,
                "warp64": row.fraction_warp64,
            }
            for row in data.rows
        },
        "average_warp32": data.average_warp32,
        "average_warp64": data.average_warp64,
        "paper": {"warp32": 0.02, "warp64": 0.05},
    }


def fig11_to_dict(data: "fig11.Fig11Data") -> dict:
    return {
        "benchmarks": {
            row.abbr: {
                "ipc_per_watt": dict(row.ipc_per_watt),
                "ipc": dict(row.ipc),
                "normalized_efficiency": {
                    name: row.normalized_efficiency(name)
                    for name in row.ipc_per_watt
                },
            }
            for row in data.rows
        },
        "average_gscalar_efficiency": data.average_gscalar_efficiency,
        "average_alu_scalar_efficiency": data.average_alu_scalar_efficiency,
        "average_gscalar_ipc": data.average_gscalar_ipc,
        "paper": {
            "gscalar_vs_baseline": 1.24,
            "gscalar_vs_alu_scalar": 1.15,
            "average_ipc": 0.983,
        },
    }


def fig12_to_dict(data: "fig12.Fig12Data") -> dict:
    return {
        "benchmarks": {row.abbr: dict(row.normalized) for row in data.rows},
        "averages": {
            technique: data.average(technique) for technique in fig12.SERIES
        },
        "paper": {"scalar_rf": 0.63, "ours": 0.46},
    }


def extras_to_dict(data: "extras_mod.ExtrasData") -> dict:
    return {
        "ours_ratio": data.ours_ratio,
        "bdi_ratio": data.bdi_ratio,
        "decompress_move_overhead": data.decompress_move_overhead,
        "decompress_move_overhead_compiler": data.decompress_move_overhead_compiler,
        "static_scalar_fraction": data.static_scalar_fraction,
        "dynamic_scalar_fraction": data.dynamic_scalar_fraction,
        "compiler_shortfall": data.compiler_shortfall,
        "address_savings_32bit": data.address_savings_32bit,
        "address_savings_64bit": data.address_savings_64bit,
        "codec_cost_ratio": data.codec_cost_ratio,
        "paper": {"ours_ratio": 2.17, "bdi_ratio": 2.13, "move_overhead": 0.02},
    }


def staticdyn_to_dict(data: "staticdyn.StaticDynData") -> dict:
    return {
        "benchmarks": {
            row.abbr: {
                "static_sites": {
                    "provably_scalar": row.static_provable,
                    "possibly_scalar": row.static_possible,
                    "divergent": row.static_divergent,
                },
                "total_events": row.total_events,
                "predicted_events": row.predicted_events,
                "dynamic_full_scalar_events": row.dynamic_full_scalar_events,
                "precision": row.precision,
                "recall": row.recall,
                "coverage": row.coverage,
                "soundness_violations": row.soundness_violations,
            }
            for row in data.rows
        },
        "average_precision": data.average_precision,
        "average_recall": data.average_recall,
        "average_coverage": data.average_coverage,
        "total_soundness_violations": data.total_soundness_violations,
        "paper": {"note": "section 6: compile-time scalarization finds far fewer"},
    }


_EXPORTERS = {
    "fig1": (fig1, fig1_to_dict),
    "fig8": (fig8, fig8_to_dict),
    "fig9": (fig9, fig9_to_dict),
    "fig10": (fig10, fig10_to_dict),
    "fig11": (fig11, fig11_to_dict),
    "fig12": (fig12, fig12_to_dict),
    "extras": (extras_mod, extras_to_dict),
    "staticdyn": (staticdyn, staticdyn_to_dict),
}


def exportable_experiments() -> tuple[str, ...]:
    """Experiments that support JSON export."""
    return tuple(_EXPORTERS)


def export_experiment(name: str, runner, scale: str) -> dict:
    """Compute one experiment and wrap it in a metadata envelope."""
    if name not in _EXPORTERS:
        raise KeyError(f"{name!r} has no JSON exporter")
    module, exporter = _EXPORTERS[name]
    payload = exporter(module.compute(runner))
    return {"experiment": name, "scale": scale, "data": payload}


def write_json(results: list[dict], path: str | Path) -> None:
    """Write a list of experiment envelopes to one JSON file."""
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))
