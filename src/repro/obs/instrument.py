"""Aggregation helpers bridging the pipeline to the telemetry registry.

Each helper takes a whole batch (one kernel's columnar trace, one
classified column set, one processed access table, one benchmark's
energy breakdown), folds it into compact per-metric aggregates, and
records those — so the instrumented modules pay one ``enabled`` check
plus one aggregation pass per batch, never per-instruction telemetry
calls in their hot loops.  Everything here is duck-typed against the trace /
column / access objects, which keeps :mod:`repro.obs` free of imports
from the simulation packages (no import cycles).

Metric vocabulary (each name one counter event in the Chrome trace,
:mod:`repro.obs.chrome_trace`; braces list a series' labels):

==========================================  ===============================
``instructions{category,opcode}``           dynamic opcode mix
``warp_instructions`` (histogram)           instructions retired per warp
``reconvergence_stack_depth`` (histogram)   max SIMT-stack depth per warp
``lockstep_steps``                          executor group steps run
``lockstep_replays``                        in-order executor replays
``scalar_class{class}``                     Figure 9 bucket counts
``scalar_class_transitions{from,to}``       consecutive-class transitions
``enc_prefix{enc}``                         enc-prefix distribution
``compression_bytes_saved{enc}``            data-array bytes elided
``divergent_mask_checks{result}``           §4.2 BVR mask match/miss
``decompress_moves``                        §3.3 inserted moves
``rf_accesses{kind}``                       register-file access shapes
``sidecar_accesses``                        BVR/EBR sidecar touches
``regfile_bank_activations{bank,op}``       per-bank activation counts
``energy_pj{component,arch}``               component energy counters
==========================================  ===============================
"""

from __future__ import annotations

from typing import Any

from repro.obs.telemetry import Telemetry


def record_columnar_warps(
    telemetry: Telemetry, columnar: Any, opcode_labels: dict[int, tuple[str, str]]
) -> None:
    """Roll a columnar trace's warps into the registry.

    The dynamic opcode mix comes from one ``np.unique`` over the stored
    opcode ids and the per-warp instruction histogram from the warp
    length table.  The executor records every trace it runs through
    here, and the runner records every trace it loads from cache, so a
    cache hit reports the same ``instructions`` /
    ``warp_instructions`` numbers as the run that executed it.
    ``opcode_labels`` maps stored opcode ids to ``(category, opcode)``
    label pairs (see :func:`repro.simt.trace.opcode_labels`), keeping
    this module free of simulation-package imports.  The
    reconvergence-stack depth is an executor-side observable, recorded
    by the executor itself (one observation per warp).
    """
    import numpy as np

    ids, counts = np.unique(columnar.opcode_ids, return_counts=True)
    for opcode_id, count in zip(ids.tolist(), counts.tolist()):
        category, opcode = opcode_labels[opcode_id]
        telemetry.count("instructions", count, category=category, opcode=opcode)
    for length in columnar.warp_lengths.tolist():
        telemetry.observe("warp_instructions", length)


def record_classified_columns(
    telemetry: Telemetry,
    columns: Any,
    class_labels: dict[int, str],
) -> None:
    """Roll one classified column set into the registry.

    Covers the tracker-level distributions the paper's figures are
    built from: ScalarClass counts and the transitions between
    consecutive events of one warp, the enc-prefix distribution of
    full register writes (byte-wise compressor output, comparable with
    :func:`repro.compression.stats.compare_trace`), the data-array
    bytes the prefix elides, the §4.2 divergent-mask match/miss rate,
    and the §3.3 decompress-move count.  ``columns`` is a
    ``repro.scalar.columns.ClassifiedColumns``; ``class_labels`` maps
    its class ids to label strings, keeping this module free of
    simulation-package imports.
    """
    import numpy as np

    class_ids = columns.scalar_class_ids.astype(np.int64)
    kinds = len(class_labels)
    for class_id, count in enumerate(
        np.bincount(class_ids, minlength=kinds).tolist()
    ):
        if count:
            telemetry.count("scalar_class", count, **{"class": class_labels[class_id]})

    previous = np.empty_like(class_ids)
    previous[1:] = class_ids[:-1]
    follows = np.ones(class_ids.size, dtype=bool)
    warp_starts = np.cumsum(columns.warp_lengths) - columns.warp_lengths
    follows[warp_starts[warp_starts < class_ids.size]] = False
    pairs = np.bincount(
        previous[follows] * kinds + class_ids[follows], minlength=kinds * kinds
    )
    for pair in np.flatnonzero(pairs).tolist():
        telemetry.count(
            "scalar_class_transitions",
            int(pairs[pair]),
            **{"from": class_labels[pair // kinds], "to": class_labels[pair % kinds]},
        )

    full_writes = columns.has_dst_enc & ~columns.divergent
    enc_counts = np.bincount(
        columns.dst_enc[full_writes].astype(np.int64), minlength=5
    )
    for enc in np.flatnonzero(enc_counts).tolist():
        count = int(enc_counts[enc])
        telemetry.count("enc_prefix", count, enc=enc)
        if enc:
            telemetry.count(
                "compression_bytes_saved", count * enc * columns.warp_size, enc=enc
            )
    checked = columns.src_divergent
    for result, count in (
        ("match", np.count_nonzero(checked & columns.src_scalar_for_read)),
        ("miss", np.count_nonzero(checked & ~columns.src_scalar_for_read)),
    ):
        if count:
            telemetry.count("divergent_mask_checks", int(count), result=result)
    moves = int(np.count_nonzero(columns.needs_move))
    if moves:
        telemetry.count("decompress_moves", moves)


def record_rf_accesses_columns(
    telemetry: Telemetry,
    columns: Any,
    kind_labels: dict[int, str],
    num_banks: int,
    warp_base: int = 0,
) -> None:
    """Roll a whole columnar access table into the registry.

    One pass over the flat access table of a
    ``repro.scalar.columns.ProcessedColumns`` produces the
    ``rf_accesses{kind}`` / ``sidecar_accesses`` /
    ``regfile_bank_activations{bank,op}`` totals; the counters
    are additive, so they equal recording every event's accesses one
    at a time.  Bank attribution uses the register file's interleaved
    mapping: architectural register *r* of warp *w* lands in bank
    ``(r + w) % num_banks``.  ``kind_labels`` maps stored access-kind
    ids to their label strings, keeping this module free of
    simulation-package imports.
    ``warp_base`` is the global index of the table's first warp — the
    chunk-streaming pipeline records one fragment at a time, and bank
    attribution must use global warp indices for chunked totals to
    match the whole-trace pass.
    """
    import numpy as np

    kind_ids = columns.acc_kind_ids
    if kind_ids.size == 0:
        return
    ids, counts = np.unique(kind_ids, return_counts=True)
    for kind_id, count in zip(ids.tolist(), counts.tolist()):
        telemetry.count("rf_accesses", count, kind=kind_labels[kind_id])

    sidecar_touches = int(np.count_nonzero(columns.acc_sidecar))
    if sidecar_touches:
        telemetry.count("sidecar_accesses", sidecar_touches)

    # Bank attribution: register r of warp w -> bank (r + w) % num_banks.
    warp_of_event = np.repeat(
        np.arange(warp_base, warp_base + len(columns.warp_lengths), dtype=np.int64),
        columns.warp_lengths,
    )
    warp_of_access = np.repeat(warp_of_event, np.diff(columns.acc_offsets))
    banks = (columns.acc_registers.astype(np.int64) + warp_of_access) % num_banks
    is_read = np.array(
        ["read" in kind_labels[kind_id] for kind_id in range(len(kind_labels))],
        dtype=bool,
    )[kind_ids]
    packed = banks * 2 + is_read
    combos, combo_counts = np.unique(packed, return_counts=True)
    for combo, count in zip(combos.tolist(), combo_counts.tolist()):
        telemetry.count(
            "regfile_bank_activations",
            count,
            bank=combo // 2,
            op="read" if combo % 2 else "write",
        )


def record_power_breakdown(
    telemetry: Telemetry, arch_name: str, breakdown: Any
) -> None:
    """Record one benchmark x architecture energy breakdown."""
    components = {
        "exec_alu": breakdown.exec_alu_pj,
        "exec_sfu": breakdown.exec_sfu_pj,
        "exec_mem": breakdown.exec_mem_pj,
        "rf": breakdown.rf_pj,
        "crossbar": breakdown.crossbar_pj,
        "compression": breakdown.compression_pj,
        "fds": breakdown.fds_pj,
        "memory": breakdown.memory_pj,
    }
    for component, picojoules in components.items():
        telemetry.count(
            "energy_pj", picojoules, component=component, arch=arch_name
        )
