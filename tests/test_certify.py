"""The static certifier: value-graph proofs, the PRE placement audit,
the seeded miscompile-injection suite, PassManager wiring, the fuzz
corpus, and the ``repro certify`` / ``repro bench certify`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import suite_routines
from repro.cli import main as cli_main
from repro.frontend import compile_program
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline import OptLevel, compile_source
from repro.pipeline.levels import LEVEL_SEQUENCES
from repro.pm.manager import PassManager, PassVerificationError, parse_verify
from repro.pm.registry import get_sequence, register_pass, resolve_spec, spec_label
from repro.pm.remarks import RemarkCollector
from repro.profile.collect import collect_module_profiles, prepare_profiled_module
from repro.profile.store import ProfileStore, set_default_store
from repro.verify import (
    audit_placement,
    certify_pass,
    prove_equivalence,
    validate_translation,
)
from repro.verify.certify.fuzz import corpus, random_program

SAXPY = """
routine saxpy(n: int, a: real, x: real[64], y: real[64])
  integer i
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end
end
"""

#: φ-free branchy IR, the shape the placement audit models (PRE runs
#: before SSA construction in the pipeline).
BRANCHY = """
function g(v_n) {
entry:
    t0 <- cmplt v_n, v_n
    cbr t0 -> left, right
left:
    t1 <- mul v_n, v_n
    jmp -> join
right:
    t2 <- add v_n, v_n
    jmp -> join
join:
    t3 <- add v_n, v_n
    ret v_n
}
"""

PHI_LOOP = """
function h(v_n) {
entry:
    t0 <- loadi 0
    t1 <- loadi 1
    jmp -> loop
loop:
    p <- phi [entry: t0, latch: t2]
    t2 <- add p, t1
    t3 <- cmplt t2, v_n
    cbr t3 -> latch, exit
latch:
    jmp -> loop
exit:
    ret t2
}
"""


def _suite_func(name):
    routine = next(r for r in suite_routines() if r.name == name)
    module = compile_program(routine.source)
    return next(iter(module))


def _pipeline_pairs(func, level="distribution"):
    current = parse_function(print_function(func))
    for spec in LEVEL_SEQUENCES[level]:
        base = spec if isinstance(spec, str) else spec[0]
        before = parse_function(print_function(current))
        current = resolve_spec(spec)(current)
        after = parse_function(print_function(current))
        yield base, before, after


# -- value-graph proofs --------------------------------------------------------


def test_identity_is_proved_alpha_equivalent():
    func = parse_function(BRANCHY)
    result = certify_pass(func, parse_function(BRANCHY), pass_name="gvn")
    assert result.proved
    assert "alpha-equivalent" in result.reason


def test_real_pipeline_runs_are_certified():
    proved = 0
    for base, before, after in _pipeline_pairs(_suite_func("sgemm")):
        result = certify_pass(before, after, pass_name=base)
        assert not result.refuted, (base, result.reason)
        proved += result.proved
    assert proved >= 6  # the value graph carries the distribution level


def test_proof_never_executes_float_code():
    # reassociate[distribute=True] really changes rounding; the replay
    # oracle rejects it, the exact-arithmetic proof licenses it.  This
    # is the documented license divergence (docs/CERTIFY.md), and the
    # reason the fuzz cross-check below is integer-only.
    routine = next(r for r in suite_routines() if r.name == "fehl")
    module = compile_program(routine.source)
    assert any(
        certify_pass(b, a, pass_name=base).proved
        and validate_translation(b, a)
        for func in module
        for base, b, a in _pipeline_pairs(func)
    )


def test_backend_ir_is_gated_not_proved():
    backend = parse_function(
        """
function f() {
entry:
    x0 <- lds 0
    sts x0, 1
    ret x0
}
"""
    )
    proof = prove_equivalence(backend, backend.clone())
    assert proof.proved  # identical printings win before the gate
    mutated = backend.clone()
    mutated.blocks[0].instructions[1].srcs = ["x0"]
    mutated.blocks[0].instructions[1].imm = 2
    proof = prove_equivalence(backend, mutated)
    assert not proof.proved
    assert "machine-level" in proof.reason


# -- the seeded miscompile-injection suite ------------------------------------
#
# One mutation per class the issue names; every class must be flagged
# (never proved), and the placement classes must be *refuted*.


def test_mutation_swap_noncommutative_operands():
    func = _suite_func("fmin")
    mutant = func.clone()
    for blk in mutant.blocks:
        for inst in blk.instructions:
            if inst.opcode in (Opcode.SUB, Opcode.FDIV) and inst.srcs[0] != inst.srcs[-1]:
                inst.srcs = [inst.srcs[1], inst.srcs[0]]
                assert not certify_pass(func, mutant, pass_name="gvn").proved
                return
    pytest.fail("no non-commutative instruction found")


def test_mutation_change_constant():
    func = _suite_func("sgemm")
    mutant = func.clone()
    for blk in mutant.blocks:
        for inst in blk.instructions:
            if inst.opcode is Opcode.LOADI:
                inst.imm = inst.imm + 1
                assert not certify_pass(func, mutant, pass_name="gvn").proved
                return
    pytest.fail("no constant found")


def test_mutation_delete_store():
    func = _suite_func("saxpy")
    mutant = func.clone()
    for blk in mutant.blocks:
        for index, inst in enumerate(blk.instructions):
            if inst.opcode is Opcode.STORE:
                del blk.instructions[index]
                assert not certify_pass(func, mutant, pass_name="peephole").proved
                return
    pytest.fail("no store found")


def test_mutation_retarget_phi():
    func = parse_function(PHI_LOOP)
    mutant = parse_function(PHI_LOOP)
    phi = mutant.block("loop").instructions[0]
    assert phi.is_phi
    phi.srcs[0] = "t1"  # loop now counts from 1, not 0
    assert not certify_pass(func, mutant, pass_name="gvn").proved


def test_mutation_drop_pre_insertion():
    # run the real pre pass, then erase one of the computations it
    # inserted: the temporary it feeds is undefined on some path, and
    # the differential def-use audit must refute
    func = _suite_func("sgemm")
    before = parse_function(print_function(func))
    after = resolve_spec("pre")(parse_function(print_function(func)))
    blocks_before = {b.label: b for b in before.blocks}
    mutant = after.clone()
    for blk in mutant.blocks:
        original = blocks_before.get(blk.label)
        originals = (
            [i.expr_key() for i in original.instructions if i.is_expression]
            if original
            else []
        )
        for index, inst in enumerate(blk.instructions):
            if not inst.is_expression:
                continue
            if originals.count(inst.expr_key()) < [
                i.expr_key() for i in blk.instructions if i.is_expression
            ].count(inst.expr_key()):
                del blk.instructions[index]
                result = certify_pass(before, mutant, pass_name="pre")
                assert result.refuted
                assert result.engine == "placement"
                return
    pytest.fail("pre inserted nothing into sgemm")


def test_every_mutation_class_over_suite_sample():
    # a denser sweep over a few routines: no mutant is ever proved
    for name in ("sgemm", "zeroin", "spline"):
        func = _suite_func(name)
        for kind in ("swap", "const", "store"):
            mutant = func.clone()
            done = False
            for blk in mutant.blocks:
                for index, inst in enumerate(blk.instructions):
                    if kind == "swap" and inst.opcode in (Opcode.SUB, Opcode.FDIV) \
                            and len(inst.srcs) == 2 and inst.srcs[0] != inst.srcs[1]:
                        inst.srcs = [inst.srcs[1], inst.srcs[0]]
                        done = True
                    elif kind == "const" and inst.opcode is Opcode.LOADI:
                        inst.imm = inst.imm + 1
                        done = True
                    elif kind == "store" and inst.opcode is Opcode.STORE:
                        del blk.instructions[index]
                        done = True
                    if done:
                        break
                if done:
                    break
            if done:
                assert not certify_pass(func, mutant, pass_name="gvn").proved, (
                    name,
                    kind,
                )


# -- the PRE placement audit ---------------------------------------------------


def test_placement_clean_on_real_pre_run():
    func = _suite_func("sgemm")
    before = parse_function(print_function(func))
    after = resolve_spec("pre")(parse_function(print_function(func)))
    audit = audit_placement(before, after)
    assert audit.verdict == "clean"
    assert audit.checks > 0


def test_placement_refutes_never_computed_insertion():
    before = parse_function(BRANCHY)
    after = parse_function(BRANCHY)
    after.block("right").instructions.insert(
        0, parse_function(BRANCHY).block("left").instructions[0]
    )
    after.block("right").instructions[0].opcode = Opcode.SUB
    after.block("right").instructions[0].target = "t9"
    audit = audit_placement(before, after)
    assert audit.verdict == "refuted"
    assert any("never computed" in d.message for d in audit.diagnostics)


def test_placement_refutes_unsafe_insertion():
    before = parse_function(BRANCHY)
    after = parse_function(BRANCHY)
    # hoist left's mul into entry: the right path never computed it
    mul = after.block("left").instructions.pop(0)
    after.block("entry").instructions.insert(0, mul)
    audit = audit_placement(before, after)
    assert audit.verdict == "refuted"
    assert any("unsafe insertion" in d.message for d in audit.diagnostics)


def test_placement_refutes_incorrect_deletion():
    before = parse_function(BRANCHY)
    after = parse_function(BRANCHY)
    # delete join's add: it is only available along the right path
    after.block("join").instructions.pop(0)
    audit = audit_placement(before, after)
    assert audit.verdict == "refuted"
    assert any("incorrect deletion" in d.message for d in audit.diagnostics)


_AUDIT_ORDER_SCRIPT = """
import json
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_function
from repro.pm.manager import PassManager
from repro.pm.remarks import RemarkCollector
from repro.profile.collect import collect_module_profiles, prepare_profiled_module
from repro.profile.store import ProfileStore, set_default_store
from repro.verify.certify import audit_placement

# two unsafe insertions into one block: the refutation's errors
before, after = parse_function(BRANCHY), parse_function(BRANCHY)
after.block("right").instructions[0:0] = [
    Instruction(Opcode.MUL, target="t8", srcs=["v_n", "v_n"]),
    Instruction(Opcode.CMPLT, target="t9", srcs=["v_n", "v_n"]),
]
for diagnostic in audit_placement(before, after).diagnostics:
    print(diagnostic.message)
# svd at spec: lospre's speculative-insertion notes
routine = next(r for r in suite_routines() if r.name == "svd")
store = ProfileStore(None)
collect_module_profiles(
    prepare_profiled_module(compile_program(routine.source)),
    [(routine.entry_name, routine.args, routine.fresh_arrays())],
    store=store,
)
collector = RemarkCollector()
with set_default_store(store):
    PassManager("spec", verify="certify", collector=collector).run_module(
        compile_program(routine.source)
    )
for remark in collector.remarks:
    if remark.event in ("certify", "diagnostic"):
        print(json.dumps(remark.as_dict(), sort_keys=True))
"""


def test_placement_audit_order_is_the_same_in_every_process():
    # expression keys hash by Opcode identity and by (seeded) strings,
    # so a set-ordered audit would differ between these two processes
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"BRANCHY = {BRANCHY!r}\n{_AUDIT_ORDER_SCRIPT}"
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("unsafe insertion") == 2
    assert outputs[0].count("speculative insertion") > 1


def test_placement_inconclusive_on_phi_input():
    func = parse_function(PHI_LOOP)
    audit = audit_placement(func, func.clone())
    assert audit.verdict == "inconclusive"


def test_missed_redundancy_lint_pre_mr_vs_pre():
    # Morel–Renvoise leaves full redundancies the LCM system removes —
    # the paper's motivation, visible as a strictly larger note count
    notes = {}
    for pass_name in ("pre", "pre-mr"):
        total = 0
        for routine in list(suite_routines())[:20]:
            module = compile_program(routine.source)
            for func in module:
                before = parse_function(print_function(func))
                after = resolve_spec(pass_name)(
                    parse_function(print_function(func))
                )
                audit = audit_placement(before, after)
                assert audit.verdict == "clean", (routine.name, audit.reason)
                total += len(audit.remarks)
        notes[pass_name] = total
    assert notes["pre-mr"] > notes["pre"]


# -- PassManager wiring --------------------------------------------------------


def test_parse_verify_accepts_certify_policies():
    assert parse_verify("certify").certify_each
    assert parse_verify("certify:each").certify_each
    plan = parse_verify("certify:final")
    assert plan.certify_final and not plan.certify_each
    assert plan.snapshot_final


def test_pipeline_clean_under_certify():
    collector = RemarkCollector()
    compile_source(
        SAXPY,
        level=OptLevel.DISTRIBUTION,
        verify="certify",
        collector=collector,
    )
    rows = [r for r in collector.remarks if r.event == "certify"]
    assert rows
    assert all(r.data["verdict"] in ("proved", "inconclusive") for r in rows)
    assert any(r.data["verdict"] == "proved" for r in rows)


def test_certify_origin_stamping():
    collector = RemarkCollector()
    compile_source(
        SAXPY,
        level=OptLevel.DISTRIBUTION,
        verify="certify",
        collector=collector,
    )
    diagnostics = [r for r in collector.remarks if r.event == "diagnostic"]
    assert all(r.data.get("origin") for r in diagnostics)


def test_certify_raises_on_miscompiling_pass():
    from repro.pm.registry import register_pass

    @register_pass("test-certify-broken")
    def broken(func):
        for blk in func.blocks:
            for inst in blk.instructions:
                if inst.opcode is Opcode.LOADI:
                    inst.imm = inst.imm + 41
                    return func
        return func

    manager = PassManager(["test-certify-broken"], verify="certify")
    func = _suite_func("sgemm")
    with pytest.raises(PassVerificationError):
        manager.run_function(func)


def test_certify_precedence_over_transval_on_license_gap():
    # fehl at the distribution level: replay rejects the rounding
    # change, the certifier proves it under the exact-arithmetic
    # license — so the policies genuinely differ here
    routine = next(r for r in suite_routines() if r.name == "fehl")
    with pytest.raises(PassVerificationError):
        compile_source(
            routine.source, level=OptLevel.DISTRIBUTION, verify="transval"
        )
    compile_source(
        routine.source, level=OptLevel.DISTRIBUTION, verify="certify"
    )


# -- one snapshot per IR state in the PassManager ------------------------------

#: inconclusive proofs (the replay fallback), speculative insertions at
#: spec, and a replay rejection (fehl under transval)
CARRY_SAMPLE = ("zeroin", "svd", "efill", "fehl")


def _profiled(name):
    routine = next(r for r in suite_routines() if r.name == name)
    store = ProfileStore(None)
    collect_module_profiles(
        prepare_profiled_module(compile_program(routine.source)),
        [(routine.entry_name, routine.args, routine.fresh_arrays())],
        store=store,
    )
    return routine, store


def _verdict_stream(collector):
    """What verification reported: ``certify`` remarks and diagnostics."""
    return [
        (r.pass_name, r.function, r.event, r.data)
        for r in collector.remarks
        if r.event in ("certify", "diagnostic")
    ]


def _reference_stream(module, level, verify):
    """Pass by pass, each before-state re-parsed from its printing.

    Every verdict comes from calling the verifiers directly, as the
    benchmark's traced compiler does; stops at the first failure, as
    the manager does.  Returns (stream, failing pass label or None).
    """
    stream = []

    def emit(label, diagnostics):
        for diagnostic in diagnostics:
            if diagnostic.origin is None:
                diagnostic.origin = label
            stream.append(
                (label, diagnostic.function, "diagnostic", diagnostic.as_dict())
            )

    steps = [
        (spec_label(spec), PassManager([spec], verify="off"))
        for spec in get_sequence(level)
    ]
    for func in module:
        for label, manager in steps:
            before = parse_function(print_function(func))
            manager.run_function(func)
            if verify == "certify":
                result = certify_pass(before, func, pass_name=label)
                emit(label, list(result.diagnostics) + list(result.remarks))
                stream.append((label, func.name, "certify", {
                    "verdict": result.verdict,
                    "engine": result.engine,
                    "obligations": result.obligations,
                    "reason": result.reason,
                }))
                if result.refuted:
                    return stream, label
                if result.proved:
                    continue
            diagnostics = validate_translation(before, func)
            emit(label, diagnostics)
            if diagnostics:
                return stream, label
    return stream, None


@pytest.mark.parametrize("verify", ["certify", "transval"])
@pytest.mark.parametrize("level", ["distribution", "spec"])
def test_manager_verdicts_match_pass_by_pass_reference(level, verify):
    seen = {"inconclusive": 0, "speculative": 0, "failed": 0}
    for name in CARRY_SAMPLE:
        routine, store = _profiled(name)
        collector = RemarkCollector()
        failed = None
        with set_default_store(store):
            expected, expected_failure = _reference_stream(
                compile_program(routine.source), level, verify
            )
            try:
                PassManager(level, verify=verify, collector=collector).run_module(
                    compile_program(routine.source)
                )
            except PassVerificationError as error:
                failed = error.pass_label
        assert _verdict_stream(collector) == expected, name
        assert failed == expected_failure, name
        seen["failed"] += failed is not None
        for _, _, event, data in expected:
            if event == "certify":
                seen["inconclusive"] += data["verdict"] == "inconclusive"
            elif "speculative insertion" in data["message"]:
                seen["speculative"] += 1
    # the sample really exercises the paths the snapshots are shared on
    if verify == "transval":
        assert seen["failed"]  # replay rejects fehl's rounding change
    else:
        assert seen["inconclusive"] and not seen["failed"]
        if level == "spec":
            assert seen["speculative"]


@register_pass("test-certify-drop-store")
def _drop_first_store(func):
    for blk in func.blocks:
        for index, inst in enumerate(blk.instructions):
            if inst.opcode is Opcode.STORE:
                del blk.instructions[index]
                return func
    return func


def test_rollback_recertifies_later_passes_against_restored_ir():
    specs = list(get_sequence("distribution"))
    # just before pre: the placement audit and, on colbur, an
    # inconclusive proof (the replay fallback) come after the rollback
    middle = [name for name, _ in specs].index("pre")
    broken = specs[:middle] + ["test-certify-drop-store"] + specs[middle:]
    func, clean = _suite_func("colbur"), _suite_func("colbur")
    collector, clean_collector = RemarkCollector(), RemarkCollector()
    PassManager(
        broken, verify="certify", on_error="rollback", collector=collector
    ).run_function(func)
    PassManager(specs, verify="certify", collector=clean_collector).run_function(
        clean
    )
    contained = [r.pass_name for r in collector.remarks if r.event == "contained"]
    assert contained == ["test-certify-drop-store"]
    assert print_function(func) == print_function(clean)
    # every later pass was certified against the restored IR, so every
    # verdict but the rolled-back pass's matches the clean sequence's
    kept = [
        row for row in _verdict_stream(collector)
        if row[0] != "test-certify-drop-store"
    ]
    assert kept == _verdict_stream(clean_collector)
    later = [row[3]["verdict"] for row in kept if row[2] == "certify"][middle:]
    assert "inconclusive" in later


@pytest.mark.parametrize("on_error", ["raise", "rollback"])
def test_bisect_skipped_applications_keep_the_carried_state(on_error):
    specs = list(get_sequence("distribution"))
    for limit in (0, len(specs) // 2, len(specs) - 1):
        func, prefix = _suite_func("decomp"), _suite_func("decomp")
        collector, reference = RemarkCollector(), RemarkCollector()
        PassManager(
            specs,
            verify="certify",
            on_error=on_error,
            opt_bisect_limit=limit,
            collector=collector,
        ).run_function(func)
        PassManager(
            specs[:limit], verify="certify", collector=reference
        ).run_function(prefix)
        assert print_function(func) == print_function(prefix), limit
        assert _verdict_stream(collector) == _verdict_stream(reference), limit
        skipped = [r for r in collector.remarks if r.event == "bisect-skip"]
        assert len(skipped) == len(specs) - limit
        assert not any(r.event == "contained" for r in collector.remarks)


# -- the fuzz corpus -----------------------------------------------------------


def test_fuzz_corpus_is_deterministic():
    assert corpus(4) == corpus(4)
    assert random_program(7) == random_program(7)


def test_fuzz_corpus_certifier_clean():
    for _, source in corpus(6):
        compile_source(source, level=OptLevel.DISTRIBUTION, verify="certify")


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=12, deadline=None)
def test_fuzz_certify_proved_implies_replay_clean(seed):
    # the cross-check that makes "proved" trustworthy: over integer
    # programs the exact-arithmetic proof semantics coincide with the
    # interpreter's, so a proof may never contradict replay
    source = random_program(seed)
    module = compile_program(source)
    for func in module:
        for base, before, after in _pipeline_pairs(func):
            result = certify_pass(before, after, pass_name=base)
            assert not result.refuted, (seed, base, result.reason)
            if result.proved:
                assert validate_translation(before, after) == [], (seed, base)


# -- CLI -----------------------------------------------------------------------


def test_cli_certify_files_and_fuzz(tmp_path, capsys):
    source = tmp_path / "saxpy.f"
    source.write_text(SAXPY)
    report_path = tmp_path / "report.json"
    code = cli_main([
        "certify",
        str(source),
        "--fuzz",
        "2",
        "--level",
        "distribution",
        "--werror",
        "--json",
        str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["programs"] == 3
    assert report["verdicts"]["refuted"] == 0
    assert report["pass_runs"] > 0
    out = capsys.readouterr().out
    assert "certified" in out


def test_cli_certify_json_format(tmp_path, capsys):
    source = tmp_path / "saxpy.f"
    source.write_text(SAXPY)
    code = cli_main([
        "certify", str(source), "--level", "partial", "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["refuted"] == 0


def test_cli_certify_nothing_to_do():
    assert cli_main(["certify"]) == 2


def test_cli_bench_certify_quick(tmp_path):
    out = tmp_path / "BENCH_certify.json"
    code = cli_main([
        "bench", "certify", "--quick", "--repeat", "1", "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pairs"] > 0
    assert report["verdicts"]["refuted"] == 0
    assert report["certify_seconds"] > 0
    assert report["pipeline"]["certify"]["failures"] == 0


# -- Function.clone ------------------------------------------------------------


def test_function_clone_is_independent():
    func = parse_function(BRANCHY)
    copy = func.clone()
    copy.block("join").instructions[0].srcs[0] = "t9"
    copy.blocks[0].label = "renamed"
    assert func.block("join").instructions[0].srcs[0] == "v_n"
    assert func.blocks[0].label == "entry"
    assert print_function(func) != print_function(copy)


def test_function_clone_counters_are_synced():
    func = parse_function(BRANCHY)
    copy = func.clone()
    assert copy.new_reg() not in {r for r in copy.all_registers()}
