"""Tests for the static-analysis subsystem (diagnostics + lint passes)."""

import json

import pytest

from repro.analysis.static_ import (
    RULES,
    CfgStructurePass,
    DeadWritePass,
    Diagnostic,
    LintReport,
    PassManager,
    RegisterPressurePass,
    Severity,
    StaticScalarClass,
    Uniformity,
    analyze_uniformity,
    block_pressure,
    definite_assignment,
    lint_kernel,
    uninitialized_reads,
)
from repro.analysis.static_ import (
    diagnostic_key,
    load_baseline,
    unsuppressed,
    write_baseline,
)
from repro.analysis.static_.diagnostics import _validate_rules
from repro.analysis.static_.framework import AnalysisContext
from repro.isa import KernelBuilder
from repro.isa.instructions import Imm, Instruction, Reg
from repro.isa.kernel import BasicBlock, Branch, Exit, Kernel
from repro.isa.liveness import block_liveness
from repro.isa.opcodes import Opcode
from repro.workloads.registry import all_workloads, build_workload


def maybe_uninit_kernel():
    """The known-bad fixture: x written in one arm, read after the join."""
    b = KernelBuilder("maybe_uninit")
    tid = b.tid()
    cond = b.setlt(tid, 16)
    with b.if_(cond):
        x = b.mov(5)
    b.iadd(x, 1)
    return b.finish()


class TestRuleRegistry:
    """The public rule table is frozen: additions only, never edits."""

    EXPECTED = {
        "GS-E001": Severity.ERROR,
        "GS-E002": Severity.ERROR,
        "GS-E003": Severity.ERROR,
        "GS-W101": Severity.WARNING,
        "GS-W102": Severity.WARNING,
        "GS-W103": Severity.WARNING,
        "GS-W104": Severity.WARNING,
        "GS-I201": Severity.INFO,
        "GS-I202": Severity.INFO,
        "GS-I203": Severity.INFO,
        "GS-I204": Severity.INFO,
    }

    def test_rule_table_is_locked(self):
        assert {code: sev for code, (sev, _t) in RULES.items()} == self.EXPECTED

    def test_titles_are_nonempty(self):
        assert all(title for _sev, title in RULES.values())

    def test_validate_rejects_malformed_code(self):
        with pytest.raises(ValueError, match="malformed"):
            _validate_rules({"GSE001": (Severity.ERROR, "t")})

    def test_validate_rejects_severity_letter_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            _validate_rules({"GS-E101": (Severity.WARNING, "t")})

    def test_validate_rejects_number_reuse_across_severities(self):
        with pytest.raises(ValueError, match="already used"):
            _validate_rules(
                {
                    "GS-E001": (Severity.ERROR, "t"),
                    "GS-W001": (Severity.WARNING, "t"),
                }
            )

    def test_validate_rejects_empty_title(self):
        with pytest.raises(ValueError, match="empty title"):
            _validate_rules({"GS-E001": (Severity.ERROR, "")})


class TestBaseline:
    def _report(self):
        report = LintReport(kernel="k")
        report.extend(
            [
                Diagnostic(rule="GS-W101", kernel="k", message="dead",
                           block_id=1, inst_index=2),
                Diagnostic(rule="GS-W104", kernel="k", message="narrow r3"),
            ]
        )
        return report

    def test_round_trip_suppresses_everything(self, tmp_path):
        report = self._report()
        path = tmp_path / "baseline.json"
        assert write_baseline([report], path) == 2
        suppressed = load_baseline(path)
        assert unsuppressed(report, suppressed) == []

    def test_new_findings_stay_unsuppressed(self, tmp_path):
        report = self._report()
        path = tmp_path / "baseline.json"
        write_baseline([report], path)
        fresh = Diagnostic(rule="GS-W101", kernel="k", message="new",
                           block_id=9, inst_index=0)
        report.extend([fresh])
        remaining = unsuppressed(report, load_baseline(path))
        assert remaining == [fresh]

    def test_key_excludes_message(self):
        a = Diagnostic(rule="GS-W104", kernel="k", message="narrow, 30%")
        b = Diagnostic(rule="GS-W104", kernel="k", message="narrow, 55%")
        assert diagnostic_key(a) == diagnostic_key(b)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "suppressed": []}')
        with pytest.raises(ValueError, match="not a lint baseline"):
            load_baseline(path)

    def test_non_object_payload_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a lint baseline"):
            load_baseline(path)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR >= Severity.ERROR

    def test_parse(self):
        assert Severity.parse("Warning") is Severity.WARNING
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")


class TestDiagnostic:
    def test_rejects_unregistered_rule(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic(rule="GS-X999", kernel="k", message="m")

    def test_rule_codes_encode_severity(self):
        for code, (severity, _title) in RULES.items():
            letter = code[3]
            assert {"E": Severity.ERROR, "W": Severity.WARNING,
                    "I": Severity.INFO}[letter] is severity

    def test_location_forms(self):
        kernel_wide = Diagnostic(rule="GS-E003", kernel="k", message="m")
        block = Diagnostic(rule="GS-W103", kernel="k", message="m", block_id=2)
        site = Diagnostic(
            rule="GS-W101", kernel="k", message="m", block_id=2, inst_index=5
        )
        assert kernel_wide.location() == "k"
        assert block.location() == "k:b2"
        assert site.location() == "k:b2:i5"

    def test_to_dict_round_trips_through_json(self):
        diag = Diagnostic(
            rule="GS-E001", kernel="k", message="m", block_id=1, inst_index=0
        )
        payload = json.loads(json.dumps(diag.to_dict()))
        assert payload["rule"] == "GS-E001"
        assert payload["severity"] == "error"
        assert payload["block"] == 1


class TestLintReport:
    def test_severity_filtering_and_counts(self):
        report = LintReport(kernel="k")
        report.extend(
            [
                Diagnostic(rule="GS-I201", kernel="k", message="info"),
                Diagnostic(rule="GS-W101", kernel="k", message="warn"),
                Diagnostic(rule="GS-E001", kernel="k", message="err"),
            ]
        )
        assert len(report.at_least(Severity.WARNING)) == 2
        assert [d.rule for d in report.errors] == ["GS-E001"]
        assert report.max_severity is Severity.ERROR
        counts = report.to_dict()["counts"]
        assert counts == {"info": 1, "warning": 1, "error": 1}

    def test_empty_report_renders_clean(self):
        report = LintReport(kernel="k")
        assert report.max_severity is None
        assert "clean" in report.render()


class TestUninitializedReads:
    def test_known_bad_fixture_yields_e002(self):
        kernel = maybe_uninit_kernel()
        findings = uninitialized_reads(kernel)
        assert any(f.rule == "GS-E002" for f in findings)
        # The finding is pinned to the post-join read site.
        [finding] = [f for f in findings if f.rule == "GS-E002"]
        assert finding.block_id is not None
        assert finding.severity is Severity.ERROR

    def test_never_written_yields_e001(self):
        kernel = Kernel(
            name="undef",
            blocks=[
                BasicBlock(
                    0,
                    [Instruction(opcode=Opcode.IADD, dst=Reg(0),
                                 srcs=(Reg(5), Reg(6)))],
                    Exit(),
                )
            ],
        )
        rules = {f.rule for f in uninitialized_reads(kernel)}
        assert rules == {"GS-E001"}

    def test_branch_condition_read_is_checked(self):
        kernel = Kernel(
            name="undef_cond",
            blocks=[
                BasicBlock(0, [], Branch(cond=Reg(3), taken=1, not_taken=1)),
                BasicBlock(1, [], Exit()),
            ],
        )
        findings = uninitialized_reads(kernel)
        assert findings and findings[0].inst_index is None

    def test_write_on_every_path_is_clean(self):
        b = KernelBuilder("both_arms")
        cond = b.setlt(b.tid(), 16)
        with b.if_(cond) as branch:
            x = b.mov(5)
            with branch.else_():
                b.mov(6, dst=x)
        b.iadd(x, 1)
        assert uninitialized_reads(b.finish()) == []

    def test_definite_assignment_intersects_paths(self):
        kernel = maybe_uninit_kernel()
        branch = kernel.blocks[0].terminator
        join = kernel.blocks[branch.taken].terminator.target
        entry = definite_assignment(kernel)
        arm_defs = {
            inst.dst.index
            for inst in kernel.blocks[branch.taken].instructions
            if inst.dst is not None
        }
        # The arm-local definition does not survive the path intersection.
        assert arm_defs and not (arm_defs & entry[join])
        # Entry-block definitions reach everything.
        entry_defs = {
            inst.dst.index
            for inst in kernel.blocks[0].instructions
            if inst.dst is not None
        }
        assert entry_defs <= entry[join]


class TestDeadWrite:
    def test_dead_write_flagged(self):
        b = KernelBuilder("dead")
        x = b.mov(1)
        b.mov(2)  # never read, not stored: dead
        b.st_global(b.mov(0x100), x)
        report = PassManager([DeadWritePass()]).run(b.finish())
        assert [d.rule for d in report.diagnostics] == ["GS-W101"]
        [diag] = report.diagnostics
        assert diag.inst_index == 1

    def test_value_live_across_blocks_not_flagged(self):
        b = KernelBuilder("live")
        x = b.mov(1)
        with b.if_(b.setlt(b.tid(), 16)):
            b.iadd(x, 1, dst=x)
        b.st_global(b.mov(0x100), x)
        report = PassManager([DeadWritePass()]).run(b.finish())
        assert report.diagnostics == []


class TestCfgStructure:
    def test_non_reconverging_branch_warns(self):
        cond_def = Instruction(opcode=Opcode.MOV, dst=Reg(0), srcs=(Imm(1),))
        kernel = Kernel(
            name="split_forever",
            blocks=[
                BasicBlock(0, [cond_def], Branch(cond=Reg(0), taken=1, not_taken=2)),
                BasicBlock(1, [], Exit()),
                BasicBlock(2, [], Exit()),
            ],
        )
        report = PassManager([CfgStructurePass()]).run(kernel)
        assert [d.rule for d in report.diagnostics] == ["GS-W102"]

    def test_degenerate_branch_is_info(self):
        cond_def = Instruction(opcode=Opcode.MOV, dst=Reg(0), srcs=(Imm(1),))
        kernel = Kernel(
            name="degenerate",
            blocks=[
                BasicBlock(0, [cond_def], Branch(cond=Reg(0), taken=1, not_taken=1)),
                BasicBlock(1, [], Exit()),
            ],
        )
        report = PassManager([CfgStructurePass()]).run(kernel)
        assert [d.rule for d in report.diagnostics] == ["GS-I203"]

    def test_structured_kernel_is_clean(self):
        b = KernelBuilder("ok")
        with b.if_(b.setlt(b.tid(), 16)):
            b.mov(1)
        report = PassManager([CfgStructurePass()]).run(b.finish())
        assert report.diagnostics == []


class TestRegisterPressure:
    def test_budget_violation_is_error(self):
        b = KernelBuilder("fat")
        regs = [b.mov(i) for i in range(70)]
        b.st_global(b.mov(0x100), regs[0])
        kernel = b.finish()
        report = PassManager([RegisterPressurePass(max_registers=64)]).run(kernel)
        assert [d.rule for d in report.errors] == ["GS-E003"]
        roomy = PassManager([RegisterPressurePass(max_registers=128)]).run(kernel)
        assert roomy.errors == []

    def test_pressure_below_register_count(self):
        # Sequentially dead temporaries never overlap: pressure stays
        # far below the raw register count.
        b = KernelBuilder("chain")
        x = b.mov(1)
        for _ in range(10):
            x = b.iadd(x, 1)
        b.st_global(b.mov(0x100), x)
        kernel = b.finish()
        pressure = block_pressure(kernel, block_liveness(kernel))
        assert max(pressure.values()) < kernel.num_registers


class TestUniformity:
    def test_direct_tid_read_is_divergent(self):
        b = KernelBuilder("addr")
        tid = b.tid()
        addr = b.imad(tid, 4, 0x100)
        b.st_global(addr, tid)
        result = analyze_uniformity(b.finish())
        # The MOV consuming %tid directly is a divergent site; the imad
        # reads the (affine) register, so it stays possibly-scalar.
        assert result.class_of(0, 0) is StaticScalarClass.DIVERGENT
        assert result.class_of(0, 1) is StaticScalarClass.POSSIBLY_SCALAR

    def test_uniform_chain_is_provably_scalar(self):
        b = KernelBuilder("uniform")
        base = b.ctaid()
        scaled = b.imul(base, 64)
        b.st_global(b.mov(0x100), scaled)
        result = analyze_uniformity(b.finish())
        assert result.class_of(0, 1) is StaticScalarClass.PROVABLY_SCALAR
        assert result.control_divergent_blocks == frozenset()

    def test_affine_value_is_possibly_scalar_not_divergent(self):
        b = KernelBuilder("affine")
        tid = b.tid()
        shifted = b.iadd(tid, 8)  # affine: lane + 8
        b.iadd(shifted, 1)
        result = analyze_uniformity(b.finish())
        # iadd(shifted, 1) reads an affine register (not %tid directly).
        assert result.class_of(0, 2) is StaticScalarClass.POSSIBLY_SCALAR

    def test_divergent_branch_masks_its_region(self):
        b = KernelBuilder("masked")
        tid = b.tid()
        c = b.mov(7)
        with b.if_(b.setlt(tid, 16)):
            b.iadd(c, 1)  # uniform operands, but under divergent control
        b.st_global(b.imad(tid, 4, 0x100), c)
        kernel = b.finish()
        result = analyze_uniformity(kernel)
        branch = kernel.blocks[0].terminator
        assert branch.taken in result.control_divergent_blocks
        assert (
            result.class_of(branch.taken, 0) is StaticScalarClass.POSSIBLY_SCALAR
        )

    def test_uniform_branch_region_stays_unmasked(self):
        b = KernelBuilder("uniform_branch")
        flag = b.seteq(b.ctaid(), 0)
        x = b.mov(1)
        with b.if_(flag):
            b.iadd(x, 1, dst=x)
        b.st_global(b.mov(0x100), x)
        result = analyze_uniformity(b.finish())
        assert result.control_divergent_blocks == frozenset()
        assert all(
            v is StaticScalarClass.PROVABLY_SCALAR for v in result.classes.values()
        )

    def test_load_from_uniform_address_is_uniform(self):
        b = KernelBuilder("bcast")
        value = b.ld_global(b.mov(0x100))  # one location: broadcast
        b.iadd(value, 1)
        result = analyze_uniformity(b.finish())
        assert result.class_of(0, 2) is StaticScalarClass.PROVABLY_SCALAR

    def test_join_is_monotone(self):
        assert (
            Uniformity.UNIFORM.join(Uniformity.AFFINE) is Uniformity.AFFINE
        )
        assert (
            Uniformity.DIVERGENT.join(Uniformity.UNDEF) is Uniformity.DIVERGENT
        )


class TestPipeline:
    def test_default_pipeline_over_all_workloads_is_error_free(self):
        for spec in all_workloads():
            kernel = build_workload(spec.abbr, "tiny").kernel
            report = lint_kernel(kernel)
            assert report.errors == [], (
                f"{spec.abbr}: {[d.render() for d in report.errors]}"
            )
            # Every kernel gets its two info reports.
            assert report.by_rule("GS-I201")
            assert report.by_rule("GS-I202")

    def test_context_caches_analyses(self):
        b = KernelBuilder("cache")
        b.mov(1)
        ctx = AnalysisContext(b.finish())
        assert ctx.liveness is ctx.liveness
        assert ctx.ipdom is ctx.ipdom
