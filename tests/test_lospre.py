"""lospre tests: speculation wins, trap safety, differential fuzz
against both conservative solvers, and the certify witness contract."""

import pytest

from tests.helpers import observe

import repro.passes.lospre as lospre
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir import parse_function
from repro.pipeline import compile_source, run_routine
from repro.pipeline.levels import LEVEL_SEQUENCES
from repro.pm.manager import PassManager
from repro.pm.remarks import RemarkCollector
from repro.profile import (
    ProfileStore,
    collect_module_profiles,
    prepare_profiled_module,
    set_default_store,
)
from repro.profile.witness import clear_witnesses
from repro.verify.certify.fuzz import random_program
from repro.verify.certify.placement import audit_placement

LOOP_SOURCE = """
routine accum(n: integer, a: real, b: real) -> real
  integer i
  real s
  s = 0.0
  i = 0
  while i < n
    if a > 0.0 then
      s = s + a * b
    end
    i = i + 1
  end
  return s
end
"""

GUARDED_DIV_SOURCE = """
routine guard(n: integer, x: real, d: real) -> real
  integer i
  real s
  s = 0.0
  i = 0
  while i < n
    if d > 0.0 then
      s = s + x / d
    end
    i = i + 1
  end
  return s
end
"""


def _collect_store(source, entry, args):
    store = ProfileStore(None)
    module = prepare_profiled_module(compile_program(source))
    collect_module_profiles(module, [(entry, args, [])], store=store)
    return store


def _compile(source, sequence, store=None, collector=None, verify="final"):
    module = compile_program(source)
    manager = PassManager(sequence, verify=verify, collector=collector)
    if store is not None:
        with set_default_store(store):
            manager.run_module(module)
    else:
        manager.run_module(module)
    return module


def _refuted(collector):
    return [
        r
        for r in collector.remarks
        if r.event == "certify" and r.data.get("verdict") == "refuted"
    ]


def _placements(collector):
    return [r.data for r in collector.remarks if r.event == "placement"]


def test_speculation_wins_with_measured_profile():
    """The branch is always taken on the driver inputs, so hoisting the
    guarded multiply out of the loop strictly pays — and certify must
    accept every speculative insertion."""
    args = (50, 3.0, 2.0)
    store = _collect_store(LOOP_SOURCE, "accum", args)
    collector = RemarkCollector()
    spec = _compile(
        LOOP_SOURCE, "spec", store=store, collector=collector, verify="certify"
    )
    base = _compile(LOOP_SOURCE, LEVEL_SEQUENCES["distribution"])

    spec_run = observe(spec, "accum", args)
    base_run = observe(base, "accum", args)
    assert spec_run.value == base_run.value
    assert spec_run.dynamic_count < base_run.dynamic_count
    assert not _refuted(collector)
    speculated = sum(
        r.data.get("speculative", 0)
        for r in collector.remarks
        if r.event == "placement"
    )
    assert speculated > 0
    # the placement remark names rejected candidates only when there are
    assert not any("rejected" in data for data in _placements(collector))


def test_trapping_expression_never_speculated():
    """``x / d`` is guarded by ``d > 0``; with ``d = 0`` the guard never
    fires.  Speculating the division would trap the interpreter."""
    args = (10, 5.0, 0.0)
    store = _collect_store(GUARDED_DIV_SOURCE, "guard", args)
    spec = _compile(GUARDED_DIV_SOURCE, "spec", store=store)
    base = _compile(GUARDED_DIV_SOURCE, LEVEL_SEQUENCES["distribution"])
    spec_run = observe(spec, "guard", args)  # must not raise
    base_run = observe(base, "guard", args)
    assert spec_run.value == base_run.value == 0.0
    assert spec_run.dynamic_count <= base_run.dynamic_count


def test_spec_compile_deterministic():
    from repro.ir import print_module

    args = (50, 3.0, 2.0)
    store = _collect_store(LOOP_SOURCE, "accum", args)
    first = print_module(_compile(LOOP_SOURCE, "spec", store=store))
    second = print_module(_compile(LOOP_SOURCE, "spec", store=store))
    assert first == second


def test_differential_fuzz_against_both_solvers():
    """On profiled fuzz programs lospre must match both conservative
    solvers observationally and never execute more operations."""
    args = (3, 4, 5)
    pre_mr_sequence = [
        "pre-mr" if spec == "pre" else spec
        for spec in LEVEL_SEQUENCES["distribution"]
    ]
    for seed in range(10):
        source = random_program(seed)
        entry = f"fuzz{seed}"
        store = _collect_store(source, entry, args)
        collector = RemarkCollector()
        spec = _compile(
            source, "spec", store=store, collector=collector, verify="certify"
        )
        pre = _compile(source, LEVEL_SEQUENCES["distribution"])
        pre_mr = _compile(source, pre_mr_sequence)

        spec_run = observe(spec, entry, args)
        pre_run = observe(pre, entry, args)
        mr_run = observe(pre_mr, entry, args)
        assert spec_run.value == pre_run.value == mr_run.value, seed
        assert not _refuted(collector), seed
        assert spec_run.dynamic_count <= pre_run.dynamic_count, seed
        assert spec_run.dynamic_count <= mr_run.dynamic_count, seed


def test_certify_spec_level_clean():
    store = _collect_store(LOOP_SOURCE, "accum", (50, 3.0, 2.0))
    collector = RemarkCollector()
    with set_default_store(store):
        compile_source(
            LOOP_SOURCE,
            level="spec",
            verify="certify",
            collector=collector,
        )
    assert not _refuted(collector)
    assert any(r.event == "certify" for r in collector.remarks)


def test_static_estimates_reject_a_mix_with_an_undefined_read():
    """With an empty profile store lospre prices with the static
    estimate.  On spline and fuzz38 the per-expression mix then takes
    Morel–Renvoise's hoist of an expression that reads another
    expression's name, but LCM's later placement of that name, so the
    hoisted code reads an unassigned register.  The arbitration must
    reject that candidate: certify refuted it, and spline's build read
    an undefined register at run time."""
    spline = next(r for r in suite_routines() if r.name == "spline")
    modules = []
    for source in (spline.source, random_program(38)):
        collector = RemarkCollector()
        modules.append(_compile(
            source, "spec", store=ProfileStore(None), collector=collector,
            verify="certify",
        ))
        assert not _refuted(collector)
        rejected = [
            data["rejected"] for data in _placements(collector)
            if "rejected" in data
        ]
        assert rejected == [["mincut"]]
    run = run_routine(
        modules[0], spline.entry_name, spline.args, spline.fresh_arrays()
    )
    expected = [list(values) for values, _ in spline.arrays]
    assert spline.reference(*spline.args, *expected) is None
    for got, want in zip(run.arrays, expected):
        assert got == pytest.approx(want)


def test_identical_candidates_are_priced_once(monkeypatch):
    """Every expression of fuzz0 picks LCM's placement, so the min-cut
    candidate is the LCM candidate and is not priced a second time."""
    priced = []
    real = lospre._final_cost

    def counting(ctx, placement, *args):
        priced.append(placement)
        return real(ctx, placement, *args)

    monkeypatch.setattr(lospre, "_final_cost", counting)
    collector = RemarkCollector()
    _compile(random_program(0), "spec", store=ProfileStore(None),
             collector=collector)
    (placement,) = _placements(collector)
    strategies = placement["strategies"]
    assert strategies["mincut"] == strategies["mr"] == 0
    assert placement["strategy"] == "lcm"
    assert placement["cost_lcm"] < placement["cost_mr"]
    assert len(priced) == 2  # LCM, which is also the min cut, and MR


BEFORE_IR = """
function f(rp, rx, ry) {
entry:
    cbr rp -> compute, skip
compute:
    r1 <- mul rx, ry
    jmp -> join
skip:
    jmp -> join
join:
    ret rx
}
"""

AFTER_IR = """
function f(rp, rx, ry) {
entry:
    r9 <- mul rx, ry
    cbr rp -> compute, skip
compute:
    r1 <- mul rx, ry
    jmp -> join
skip:
    jmp -> join
join:
    ret rx
}
"""


def test_unwitnessed_speculative_insertion_refuted():
    """A speculative insertion with no profile witness on file is a
    contract violation, even though the site is trap-free and partially
    anticipable."""
    clear_witnesses()
    before = parse_function(BEFORE_IR)
    after = parse_function(AFTER_IR)
    audit = audit_placement(before, after, speculative=True)
    assert audit.verdict == "refuted"
    assert any("witness" in d.message for d in audit.diagnostics)


def test_nonspeculative_audit_still_refutes():
    """The conservative contract is unchanged: the same insertion under
    the plain (pre/pre-mr) audit refutes on anticipability alone."""
    before = parse_function(BEFORE_IR)
    after = parse_function(AFTER_IR)
    audit = audit_placement(before, after)
    assert audit.verdict == "refuted"
