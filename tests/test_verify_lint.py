"""The verify layer: checkers, lint driver, translation validation,
PassManager verify policies, and the ``repro lint`` CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_function
from repro.ir.validate import IRValidationError, validate_function
from repro.pipeline import OptLevel, compile_source
from repro.pm.manager import (
    PassManager,
    PassVerificationError,
    VerifyPlan,
    parse_verify,
)
from repro.pm.registry import register_pass
from repro.pm.remarks import RemarkCollector
from repro.verify import (
    all_checkers,
    checker_ids,
    generate_cases,
    lint_function,
    lint_module,
    semantic_fingerprint,
    validate_translation,
)
from repro.verify.diagnostics import Diagnostic, promote_warnings, summarize

SOURCE = """
routine saxpy(n: int, a: real, x: real[64], y: real[64])
  integer i
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end
end
"""

CLEAN_IR = """
function clean(v_a, v_b) {
entry:
    t0 <- add v_a, v_b
    t1 <- mul t0, v_a
    ret t1
}
"""


def findings(func_text, checker):
    func = parse_function(func_text)
    return lint_function(func, [checker])


# -- one positive and one negative case per checker ----------------------------


def test_registry_lists_all_checkers():
    ids = checker_ids()
    assert ids == [
        "def-use",
        "unreachable",
        "critical-edge",
        "dead-store",
        "phi-hygiene",
        "naming",
        "rank-order",
    ]
    for info in all_checkers():
        assert info.severity in ("error", "warning", "note")
        assert info.description


def test_def_use_clean():
    assert findings(CLEAN_IR, "def-use") == []


def test_def_use_flags_non_dominating_definition():
    diags = findings(
        """
        function f(v_a) {
        entry:
            t0 <- loadi 1
            cbr v_a -> left, join
        left:
            t1 <- loadi 2
            jmp -> join
        join:
            t2 <- add t1, t0
            ret t2
        }
        """,
        "def-use",
    )
    assert len(diags) == 1
    assert diags[0].severity == "error"
    assert "t1" in diags[0].message
    assert "non-dominating" in diags[0].message


def test_def_use_flags_use_before_def_in_block():
    diags = findings(
        """
        function f() {
        entry:
            t1 <- add t0, t0
            t0 <- loadi 1
            ret t1
        }
        """,
        "def-use",
    )
    assert len(diags) == 1
    assert "never defined" in diags[0].message


def test_def_use_charges_phi_operands_to_predecessor():
    # t2 is defined *after* the φ textually, but on the back edge it is
    # defined at the predecessor's exit — a legal SSA loop, no finding.
    diags = findings(
        """
        function f(v_n) {
        entry:
            t0 <- loadi 0
            jmp -> head
        head:
            t1 <- phi [entry: t0, head: t2]
            t2 <- add t1, v_n
            t3 <- cmplt t2, v_n
            cbr t3 -> head, exit
        exit:
            ret t2
        }
        """,
        "def-use",
    )
    assert diags == []


def test_unreachable_clean():
    assert findings(CLEAN_IR, "unreachable") == []


def test_unreachable_flags_orphan_block():
    diags = findings(
        """
        function f() {
        entry:
            ret
        orphan:
            ret
        }
        """,
        "unreachable",
    )
    assert len(diags) == 1
    assert diags[0].severity == "warning"
    assert diags[0].block == "orphan"


def test_critical_edge_clean():
    assert findings(CLEAN_IR, "critical-edge") == []


def test_critical_edge_flags_multi_out_to_multi_in():
    diags = findings(
        """
        function f(v_a) {
        entry:
            cbr v_a -> left, join
        left:
            jmp -> join
        join:
            ret
        }
        """,
        "critical-edge",
    )
    assert len(diags) == 1
    assert diags[0].severity == "note"
    assert "entry" in diags[0].message and "join" in diags[0].message


def test_dead_store_clean():
    assert findings(CLEAN_IR, "dead-store") == []


def test_dead_store_flags_unread_pure_result():
    diags = findings(
        """
        function f(v_a) {
        entry:
            t0 <- loadi 7
            ret v_a
        }
        """,
        "dead-store",
    )
    assert len(diags) == 1
    assert diags[0].severity == "warning"
    assert "t0" in diags[0].message


def test_dead_store_keeps_store_and_live_values():
    diags = findings(
        """
        function f(v_p, v_v) {
        entry:
            store v_v, v_p
            ret
        }
        """,
        "dead-store",
    )
    assert diags == []


def test_phi_hygiene_clean():
    diags = findings(
        """
        function f(v_a, v_b) {
        entry:
            cbr v_a -> left, right
        left:
            t0 <- loadi 1
            jmp -> join
        right:
            t1 <- loadi 2
            jmp -> join
        join:
            t2 <- phi [left: t0, right: t1]
            ret t2
        }
        """,
        "phi-hygiene",
    )
    assert diags == []


def test_phi_hygiene_flags_redundant_and_dead_phis():
    diags = findings(
        """
        function f(v_a) {
        entry:
            t0 <- loadi 1
            cbr v_a -> left, right
        left:
            jmp -> join
        right:
            jmp -> join
        join:
            t1 <- phi [left: t0, right: t0]
            t2 <- phi [left: t0, right: v_a]
            ret t1
        }
        """,
        "phi-hygiene",
    )
    messages = [d.message for d in diags]
    assert any("redundant" in m for m in messages)  # t1 merges only t0
    assert any("dead φ" in m for m in messages)  # t2 feeds nothing


def test_naming_clean():
    assert findings(CLEAN_IR, "naming") == []


def test_naming_flags_two_names_for_one_expression():
    diags = findings(
        """
        function f(v_a, v_b) {
        entry:
            t0 <- add v_a, v_b
            t1 <- add v_a, v_b
            t2 <- mul t0, t1
            ret t2
        }
        """,
        "naming",
    )
    assert any("several names" in d.message for d in diags)
    assert all(d.severity == "note" for d in diags)


def test_rank_order_clean():
    diags = findings(
        """
        function f(v_n) {
        entry:
            t0 <- loadi 0
            t1 <- loadi 1
            jmp -> head
        head:
            t2 <- phi [entry: t0, head: t3]
            t3 <- add t1, t2
            t4 <- cmplt t3, v_n
            cbr t4 -> head, exit
        exit:
            ret t3
        }
        """,
        "rank-order",
    )
    assert diags == []


def test_rank_order_flags_high_rank_operand_first():
    diags = findings(
        """
        function f(v_n) {
        entry:
            t0 <- loadi 0
            t1 <- loadi 1
            jmp -> head
        head:
            t2 <- phi [entry: t0, head: t3]
            t3 <- add t2, t1
            t4 <- cmplt t3, v_n
            cbr t4 -> head, exit
        exit:
            ret t3
        }
        """,
        "rank-order",
    )
    assert len(diags) >= 1
    assert all(d.severity == "note" for d in diags)
    assert any("not rank-sorted" in d.message for d in diags)


# -- lint driver ---------------------------------------------------------------


def test_lint_function_reports_structural_break_as_diagnostic():
    func = parse_function(CLEAN_IR)
    func.blocks[0].instructions.pop()  # drop the terminator
    diags = lint_function(func)
    assert len(diags) == 1
    assert diags[0].checker == "structure"
    assert diags[0].severity == "error"
    assert "terminator" in diags[0].message


def test_lint_module_clean_at_every_level():
    for level in [None] + [opt.value for opt in OptLevel]:
        module = compile_source(SOURCE, level=level)
        diags = lint_module(module)
        assert not [d for d in diags if d.severity == "error"], level


def test_diagnostic_round_trip_and_format():
    diag = Diagnostic(
        checker="dead-store",
        severity="warning",
        function="f",
        message="result 't0' is never read (dead store)",
        block="entry",
        instruction="t0 <- loadi 7",
        index=3,
    )
    assert Diagnostic.from_dict(diag.as_dict()) == diag
    text = diag.format()
    assert "warning: f/entry[3]: [dead-store]" in text
    assert promote_warnings([diag])[0].severity == "error"
    assert summarize([diag]) == "0 errors, 1 warning, 0 notes"


# -- the translation validator -------------------------------------------------


def test_fingerprint_is_alpha_renaming_invariant():
    renamed = CLEAN_IR.replace("t0", "x9").replace("t1", "zz")
    assert semantic_fingerprint(parse_function(CLEAN_IR)) == semantic_fingerprint(
        parse_function(renamed)
    )


def test_fingerprint_distinguishes_different_code():
    changed = CLEAN_IR.replace("mul", "add")
    assert semantic_fingerprint(parse_function(CLEAN_IR)) != semantic_fingerprint(
        parse_function(changed)
    )


def test_generate_cases_is_deterministic_and_windows_addresses():
    func = compile_source(SOURCE)["saxpy"]
    first, second = generate_cases(func), generate_cases(func)
    assert [c.scalars for c in first] == [c.scalars for c in second]
    assert [c.windows for c in first] == [c.windows for c in second]
    assert "v_x" in first[0].windows and "v_y" in first[0].windows
    assert "v_n" in first[0].scalars


def test_transval_accepts_real_optimization():
    before = compile_source(SOURCE)["saxpy"]
    after = compile_source(SOURCE, level="distribution")["saxpy"]
    assert validate_translation(before, after) == []


def test_transval_catches_a_miscompile():
    before = compile_source(SOURCE)["saxpy"]
    after = compile_source(SOURCE)["saxpy"]
    for inst in after.instructions():
        if inst.opcode is Opcode.ADD:
            inst.opcode = Opcode.SUB
            break
    diags = validate_translation(before, after)
    assert len(diags) == 1
    assert diags[0].checker == "transval"
    assert diags[0].severity == "error"
    assert "observable behaviour changed" in diags[0].message


# -- structural validator now checks dominance ---------------------------------


def test_validate_ssa_rejects_use_before_def_in_same_block():
    func = parse_function(
        """
        function f() {
        entry:
            t1 <- add t0, t0
            t0 <- loadi 1
            ret t1
        }
        """
    )
    with pytest.raises(IRValidationError, match="undefined"):
        validate_function(func, ssa=True)


def test_validate_ssa_accepts_loop_phi_back_edge():
    func = parse_function(
        """
        function f(v_n) {
        entry:
            t0 <- loadi 0
            jmp -> head
        head:
            t1 <- phi [entry: t0, head: t2]
            t2 <- add t1, v_n
            t3 <- cmplt t2, v_n
            cbr t3 -> head, exit
        exit:
            ret t2
        }
        """
    )
    validate_function(func, ssa=True)


# -- PassManager policies ------------------------------------------------------


@register_pass("test-orphan-def")
def _orphan_def(func):
    """Break def-use: rename one definition but leave its uses alone."""
    for blk in func.blocks:
        for inst in blk.instructions:
            if inst.target and any(
                inst.target in other.srcs
                for b in func.blocks
                for other in b.instructions
            ):
                inst.target = inst.target + "_orphan"
                return


@register_pass("test-flip-add")
def _flip_add(func):
    """Miscompile: turn the first add into a sub."""
    for inst in func.instructions():
        if inst.opcode is Opcode.ADD:
            inst.opcode = Opcode.SUB
            return


@register_pass("test-dead-loadi")
def _dead_loadi(func):
    """Benign hygiene slip: append a never-read loadi."""
    from repro.ir.instructions import Instruction

    entry = func.blocks[0]
    entry.instructions.insert(
        len(entry.instructions) - 1,
        Instruction(Opcode.LOADI, target="t_unused_lint", imm=7),
    )


def test_parse_verify_grammar():
    assert parse_verify("off").off
    assert parse_verify("each") == VerifyPlan(structural_each=True)
    assert parse_verify("lint") == VerifyPlan(lint_each=True)
    assert parse_verify("transval:final") == VerifyPlan(transval_final=True)
    combined = parse_verify("lint,transval:final")
    assert combined.lint_each and combined.transval_final
    for bad in ("bogus", "off,each", " , ", "lint:each", "transval:each"):
        with pytest.raises(ValueError):
            parse_verify(bad)
    with pytest.raises(ValueError):
        PassManager(["clean"], verify="nope")


def test_verify_lint_names_the_culprit_pass():
    manager = PassManager(
        ["constprop", "test-orphan-def", "clean"], verify="lint"
    )
    with pytest.raises(PassVerificationError) as excinfo:
        compile_source(SOURCE, manager=manager)
    assert excinfo.value.pass_label == "test-orphan-def"
    assert excinfo.value.diagnostics
    assert excinfo.value.diagnostics[0].checker == "def-use"
    assert "test-orphan-def" in str(excinfo.value)


def test_verify_transval_names_the_culprit_pass():
    manager = PassManager(
        ["constprop", "test-flip-add", "clean"], verify="transval"
    )
    with pytest.raises(PassVerificationError) as excinfo:
        compile_source(SOURCE, manager=manager)
    assert excinfo.value.pass_label == "test-flip-add"
    assert excinfo.value.diagnostics[0].checker == "transval"


def test_verify_transval_final_blames_last_pass():
    manager = PassManager(["test-flip-add", "clean"], verify="transval:final")
    with pytest.raises(PassVerificationError) as excinfo:
        compile_source(SOURCE, manager=manager)
    assert excinfo.value.pass_label == "clean"


def test_verify_composed_policies_catch_either_failure():
    manager = PassManager(["test-flip-add"], verify="lint,transval")
    with pytest.raises(PassVerificationError) as excinfo:
        compile_source(SOURCE, manager=manager)
    assert excinfo.value.pass_label == "test-flip-add"


def test_verify_lint_routes_warnings_to_remarks_without_raising():
    collector = RemarkCollector()
    manager = PassManager(
        ["test-dead-loadi"], verify="lint", collector=collector
    )
    compile_source(SOURCE, manager=manager)  # warnings are not fatal
    remarks = [r for r in collector.remarks if r.event == "diagnostic"]
    assert remarks
    assert any(
        r.data.get("checker") == "dead-store"
        and r.data.get("severity") == "warning"
        and r.pass_name == "test-dead-loadi"
        for r in remarks
    )
    for remark in remarks:
        for value in remark.data.values():
            assert isinstance(value, (int, float, bool, str))


def test_verify_clean_pipeline_passes_all_policies():
    manager = PassManager("partial", verify="lint,transval")
    module = compile_source(SOURCE, manager=manager)
    assert "saxpy" in module


def test_pass_verification_error_carries_sequence_and_pickles():
    diag = Diagnostic(
        checker="transval", severity="error", function="f", message="diverged"
    )
    error = PassVerificationError("gvn", "f", [diag], sequence="partial")
    assert "sequence 'partial'" in str(error)
    assert "gvn" in str(error)
    assert error.pass_label == "gvn"
    assert error.sequence == "partial"
    assert error.diagnostics == [diag]


# -- the repro lint CLI --------------------------------------------------------


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    return str(path)


def test_cli_lint_clean_program_exits_zero(source_file, capsys):
    assert cli_main(["lint", source_file, "--level", "partial", "--werror"]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_cli_lint_werror_promotes_frontend_dead_stores(tmp_path, capsys):
    path = tmp_path / "dead.f"
    path.write_text(
        """
routine f(a: int) -> int
  integer t
  t = a + a
  return a
end
"""
    )
    assert cli_main(["lint", str(path), "--level", "none"]) == 0
    assert cli_main(["lint", str(path), "--level", "none", "--werror"]) == 1
    out = capsys.readouterr().out
    assert "dead-store" in out


def test_cli_lint_json_report(source_file, tmp_path, capsys):
    out_path = tmp_path / "diag.json"
    code = cli_main(
        ["lint", source_file, "--format", "json", "--json", str(out_path)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["programs"] == 1
    assert report["levels"] == [level.value for level in OptLevel]
    assert report["errors"] == 0
    assert json.loads(out_path.read_text()) == report
    for record in report["diagnostics"]:
        assert record["source"]
        assert record["level"]


def test_cli_lint_rejects_unknown_checker(source_file):
    assert cli_main(["lint", source_file, "--checker", "nope"]) == 2


def test_cli_lint_without_inputs_exits_two(capsys):
    assert cli_main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_cli_passes_lists_checkers(capsys):
    assert cli_main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "checkers (repro lint" in out
    for checker_id in checker_ids():
        assert checker_id in out


def test_cli_verify_flag_accepts_lint_spec(source_file, capsys):
    assert (
        cli_main(
            [
                "compile",
                source_file,
                "--level",
                "partial",
                "--verify",
                "lint,transval:final",
            ]
        )
        == 0
    )
    assert "function saxpy" in capsys.readouterr().out
