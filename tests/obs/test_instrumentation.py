"""Pipeline instrumentation: recorded metrics agree with ground truth."""

import pytest

from repro.compression.stats import compare_trace
from repro.obs.telemetry import Telemetry, telemetry_session
from repro.scalar.batch import classify_columnar_batch
from repro.simt.executor import run_kernel
from repro.workloads.registry import build_workload

from tests.reference.classify import classify_trace
from tests.reference.power import account
from tests.reference.trace import to_trace


def _run_instrumented(abbr: str, scale: str = "tiny"):
    """Execute and classify (production classifier) under telemetry."""
    built = build_workload(abbr, scale)
    with telemetry_session() as telemetry:
        trace = run_kernel(built.kernel, built.launch, built.memory)
        ccols = classify_columnar_batch(trace, built.kernel.num_registers)
    return telemetry, trace, ccols


class TestExecutorMetrics:
    def test_instruction_mix_matches_trace(self):
        telemetry, trace, _ = _run_instrumented("BP")
        total_events = trace.num_events
        recorded = sum(telemetry.counters_named("instructions").values())
        assert recorded == total_events

    def test_warp_instruction_histogram_covers_every_warp(self):
        telemetry, trace, _ = _run_instrumented("BP")
        histogram = telemetry.histogram("warp_instructions")
        assert sum(histogram.values()) == trace.num_warps
        assert sum(v * c for v, c in histogram.items()) == trace.num_events

    def test_stack_depth_recorded_per_warp(self):
        telemetry, trace, _ = _run_instrumented("BP")
        histogram = telemetry.histogram("reconvergence_stack_depth")
        assert sum(histogram.values()) == trace.num_warps
        assert min(histogram) >= 1

    def test_kernel_and_warp_spans_recorded(self):
        telemetry, trace, _ = _run_instrumented("BP")
        cats = {span.cat for span in telemetry.spans}
        assert "kernel" in cats
        assert "warp" in cats


class TestTrackerMetrics:
    def test_scalar_class_totals_match_classification(self):
        telemetry, trace, _ = _run_instrumented("BP")
        # Ground truth: the per-event tracker, which records nothing.
        num_registers = build_workload("BP", "tiny").kernel.num_registers
        classified = classify_trace(to_trace(trace), num_registers)
        by_class: dict[str, int] = {}
        for warp_events in classified:
            for item in warp_events:
                name = item.scalar_class.value
                by_class[name] = by_class.get(name, 0) + 1
        recorded = {
            dict(labels)["class"]: value
            for labels, value in telemetry.counters_named("scalar_class").items()
        }
        assert recorded == by_class

    def test_transitions_sum_to_events_minus_warps(self):
        telemetry, _, ccols = _run_instrumented("BP")
        total = ccols.num_events
        transitions = sum(
            telemetry.counters_named("scalar_class_transitions").values()
        )
        nonempty_warps = int((ccols.warp_lengths > 0).sum())
        assert transitions == total - nonempty_warps

    @pytest.mark.parametrize("abbr", ["BP", "HS"])
    def test_enc_prefix_agrees_with_compression_stats(self, abbr):
        # The tracker-side enc distribution and the standalone
        # compression comparison walk the same full register writes
        # with the same byte-wise prefix rule, so they must agree
        # exactly (the Figure 8 cross-check).
        telemetry, trace, _ = _run_instrumented(abbr)
        comparison = compare_trace(trace)
        recorded = {
            int(dict(labels)["enc"]): int(value)
            for labels, value in telemetry.counters_named("enc_prefix").items()
        }
        expected = {
            enc: count for enc, count in comparison.enc_histogram.items() if count
        }
        assert recorded == expected
        assert sum(recorded.values()) == comparison.registers_seen

    def test_bytes_saved_follow_enc_distribution(self):
        telemetry, trace, _ = _run_instrumented("BP")
        for labels, value in telemetry.counters_named(
            "compression_bytes_saved"
        ).items():
            enc = int(dict(labels)["enc"])
            count = telemetry.counter_value("enc_prefix", enc=enc)
            assert value == count * enc * trace.warp_size


class TestPipelineMetrics:
    @pytest.fixture(scope="class")
    def profiled(self):
        from repro.experiments.runner import ExperimentRunner, paper_architectures

        with telemetry_session() as telemetry:
            runner = ExperimentRunner(scale="tiny")
            runner.run("BP")
            for arch in paper_architectures():
                runner.power("BP", arch)
        return telemetry

    def test_bank_activations_cover_all_ops(self, profiled):
        series = profiled.counters_named("regfile_bank_activations")
        ops = {dict(labels)["op"] for labels in series}
        assert {"read", "write"} <= ops

    def test_energy_counters_per_component_and_arch(self, profiled):
        series = profiled.counters_named("energy_pj")
        arches = {dict(labels)["arch"] for labels in series}
        components = {dict(labels)["component"] for labels in series}
        assert arches == {
            "baseline", "alu_scalar", "gscalar_no_divergent", "gscalar"
        }
        assert "rf" in components and "fds" in components

    def test_runner_stats_share_the_registry(self, profiled):
        events = profiled.counters_named("runner_events")
        assert any(
            dict(labels).get("event") == "trace_executions" for labels in events
        )
        stages = profiled.counters_named("runner_stage_seconds")
        assert any(
            dict(labels).get("stage") == "stream" for labels in stages
        )

    def test_gscalar_compressor_counters(self):
        import numpy as np

        from repro.compression.gscalar import compress, decompress

        with telemetry_session() as telemetry:
            scalar = compress(np.full(32, 7, dtype=np.uint32))
            decompress(scalar)
        assert telemetry.counter_value("gscalar_compressions", enc=4) == 1
        assert telemetry.counter_value("bvr_accesses", op="write") == 1
        assert telemetry.counter_value("ebr_accesses", op="write") == 1
        assert telemetry.counter_value("gscalar_decompressions", enc=4) == 1
        assert telemetry.counter_value("bvr_accesses", op="read") == 1
        assert telemetry.counter_value("compressor_bytes_saved", enc=4) == 4 * 32

    def test_register_file_bank_activations(self):
        # Warp 1 writes r3 and reads it back: register r of warp w lands
        # in bank (r + w) % 16.
        from types import SimpleNamespace

        import numpy as np

        from repro.obs.instrument import record_rf_accesses_columns
        from repro.regfile.access import ACCESS_KIND_TO_ID, ID_TO_ACCESS_KIND, AccessKind

        columns = SimpleNamespace(
            warp_lengths=np.array([0, 2]),
            acc_offsets=np.array([0, 1, 2]),
            acc_kind_ids=np.array(
                [
                    ACCESS_KIND_TO_ID[AccessKind.FULL_WRITE],
                    ACCESS_KIND_TO_ID[AccessKind.FULL_READ],
                ],
                dtype=np.uint8,
            ),
            acc_registers=np.array([3, 3], dtype=np.int32),
            acc_sidecar=np.zeros(2, dtype=bool),
        )
        labels = {k: v.value for k, v in ID_TO_ACCESS_KIND.items()}
        with telemetry_session() as telemetry:
            record_rf_accesses_columns(telemetry, columns, labels, num_banks=16)
        assert telemetry.counter_value(
            "regfile_bank_activations", bank=4, op="write"
        ) == 1
        assert telemetry.counter_value(
            "regfile_bank_activations", bank=4, op="read"
        ) == 1


class TestDeterminism:
    def test_figure_json_identical_with_and_without_telemetry(self, tmp_path):
        from repro.cli import main

        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "instrumented.json"
        assert main(["fig1", "--scale", "tiny", "--json", str(plain)]) == 0
        assert (
            main(
                [
                    "fig1", "--scale", "tiny", "--json", str(instrumented),
                    "--trace-out", str(tmp_path / "t.json"),
                ]
            )
            == 0
        )
        assert plain.read_bytes() == instrumented.read_bytes()

    def test_figure_stdout_identical(self, capsys):
        from repro.cli import main

        main(["fig1", "--scale", "tiny"])
        plain = capsys.readouterr().out
        with telemetry_session():
            main(["fig1", "--scale", "tiny"])
        instrumented = capsys.readouterr().out
        assert plain == instrumented


class TestColumnarAccountingMetrics:
    """account_columns records the same RF telemetry as account."""

    @pytest.mark.parametrize("arch_name", ["baseline", "gscalar", "alu_scalar"])
    def test_rf_counters_match_event_engine(self, arch_name):
        from repro.config import architecture_by_name
        from repro.power.accounting import PowerAccountant
        from repro.scalar.arch_batch import process_columns
        from tests.reference.interpret import process_classified
        from tests.reference.timing import simulate_architecture

        built = build_workload("BP", "tiny")
        trace = run_kernel(built.kernel, built.launch, built.memory)
        classified = classify_trace(to_trace(trace), built.kernel.num_registers)
        arch = architecture_by_name(arch_name)
        processed = process_classified(classified, arch, trace.warp_size)
        pcols = process_columns(
            classify_columnar_batch(trace, built.kernel.num_registers),
            arch,
        )
        timing = simulate_architecture(processed, arch, warp_size=trace.warp_size)
        accountant = PowerAccountant(arch)

        with telemetry_session() as event_tel:
            account(accountant, processed, timing)
        with telemetry_session() as batch_tel:
            accountant.account_columns(pcols, timing)

        for family in ("rf_accesses", "sidecar_accesses", "regfile_bank_activations"):
            assert batch_tel.counters_named(family) == event_tel.counters_named(
                family
            ), family
