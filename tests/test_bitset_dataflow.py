"""One data-flow solver, two encodings: frozensets and bit masks.

Property tests: on randomized CFGs (the same fuel-bounded generator the
IR fuzzer uses) :func:`repro.dataflow.framework.solve` must reach the
same fixpoint, in the same sweeps and with the same work counts, for
all four problem shapes (forward/backward × union/intersection) whether
a problem is stated on ``frozenset``\\ s or on masks over a
:class:`~repro.dataflow.bitset.FactUniverse`, and the PRE context's
mask solves must match frozenset solves of the same problems.  No
production code converts a problem between encodings, so the interning
these tests need lives here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_ir_fuzz import build_fuzz_function

from repro.analysis.manager import analyses
from repro.dataflow.bitset import FactUniverse
from repro.dataflow.framework import (
    GLOBAL_STATS,
    DataflowConvergenceError,
    DataflowProblem,
    solve,
)
from repro.dataflow.problems import (
    anticipable_expression_problem,
    available_expression_problem,
    live_variable_problem,
    live_variables,
)
from repro.ir import parse_function
from repro.passes.pre_common import prepare_pre

# -- FactUniverse units -----------------------------------------------------


def test_fact_universe_interns_in_order():
    universe = FactUniverse(["a", "b", "c"])
    assert [universe.index[f] for f in ("a", "b", "c")] == [0, 1, 2]
    assert universe.bit("b") == 2
    assert universe.mask_of(["a", "c"]) == 0b101
    assert len(universe) == 3 and "b" in universe and "z" not in universe


def test_fact_universe_duplicate_facts_fall_back_to_loop():
    universe = FactUniverse(["a", "b", "a", "c", "b"])
    assert universe.facts == ["a", "b", "c"]
    assert universe.mask_of(["c"]) == 0b100


def test_fact_universe_facts_of_sparse_and_dense():
    facts = [f"r{i}" for i in range(100)]
    universe = FactUniverse(facts)
    sparse = universe.mask_of(facts[:3])
    dense = universe.full_mask ^ universe.mask_of(facts[:3])
    assert universe.facts_of(sparse) == frozenset(facts[:3])
    assert universe.facts_of(dense) == frozenset(facts[3:])
    assert universe.facts_of(universe.full_mask) == frozenset(facts)
    assert universe.facts_of(0) == frozenset()


# -- both encodings on randomized CFGs --------------------------------------


def _on_masks(problem):
    """``problem`` restated on masks over a universe interned here, and
    the universe (to lift the fixpoint back to frozensets)."""
    universe = FactUniverse(sorted(problem.universe, key=repr))

    def masks(sets):
        return {lbl: universe.mask_of(facts) for lbl, facts in sets.items()}

    masked = DataflowProblem(
        direction=problem.direction,
        meet=problem.meet,
        universe=universe.full_mask,
        gen=masks(problem.gen),
        kill=masks(problem.kill),
        boundary=universe.mask_of(problem.boundary),
    )
    return masked, universe


def _solve_counted(problem, cfg):
    """The fixpoint and the work counters it added to ``GLOBAL_STATS``."""
    before = GLOBAL_STATS.as_dict()
    result = solve(problem, cfg)
    after = GLOBAL_STATS.as_dict()
    return result, {key: after[key] - before[key] for key in after}


def _assert_encodings_agree(problem, cfg):
    masked, universe = _on_masks(problem)
    on_sets, set_work = _solve_counted(problem, cfg)
    on_masks, mask_work = _solve_counted(masked, cfg)
    lifted = [
        {lbl: universe.facts_of(mask) for lbl, mask in side.items()}
        for side in (on_masks.inn, on_masks.out)
    ]
    assert lifted == [on_sets.inn, on_sets.out]
    assert on_masks.iterations == on_sets.iterations
    assert mask_work == set_work and mask_work["solves"] == 1


def _fuzz_problems(func):
    """One problem per direction × meet shape over the same function."""
    cfg = analyses(func).cfg()
    live = live_variable_problem(func, cfg)
    shapes = [
        live,  # backward / union
        available_expression_problem(func),  # forward / intersection
        anticipable_expression_problem(func),  # backward / intersection
        DataflowProblem(  # forward / union (reaching-style)
            direction="forward",
            meet="union",
            universe=live.universe,
            gen=live.gen,
            kill=live.kill,
        ),
    ]
    return cfg, shapes


@settings(max_examples=40, deadline=None)
@given(
    n_blocks=st.integers(min_value=1, max_value=8),
    choices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60),
)
def test_mask_engine_matches_reference_on_fuzzed_cfgs(n_blocks, choices):
    func = build_fuzz_function(n_blocks, choices)
    cfg, shapes = _fuzz_problems(func)
    for problem in shapes:
        _assert_encodings_agree(problem, cfg)


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(min_value=1, max_value=8),
    choices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=60),
)
def test_pre_context_solves_match_reference_solver(n_blocks, choices):
    func = build_fuzz_function(n_blocks, choices)
    ctx = prepare_pre(func)
    if ctx is None:
        return
    # the context normalized the function; frozenset-solve the same IR
    avail = solve(available_expression_problem(func), ctx.cfg)
    ant = solve(anticipable_expression_problem(func), ctx.cfg)
    assert ctx.lift_blocks(ctx.avail_in) == avail.inn
    assert ctx.lift_blocks(ctx.avail_out) == avail.out
    assert ctx.lift_blocks(ctx.ant_in) == ant.inn
    assert ctx.lift_blocks(ctx.ant_out) == ant.out


# -- no problem changes encoding --------------------------------------------


def _wide_loop(n_blocks: int) -> str:
    """A loop of ``n_blocks`` blocks, each defining one new register."""
    lines = ["function wide(r0) {"]
    for i in range(n_blocks):
        lines += [f"b{i}:", f"    r{i + 1} <- add r{i}, r0"]
        if i + 1 < n_blocks:
            lines.append(f"    jmp -> b{i + 1}")
    lines += [f"    cbr r{n_blocks} -> b1, done", "done:", f"    ret r{n_blocks}", "}"]
    return "\n".join(lines)


def test_wide_liveness_solves_on_frozensets_and_counts_sweeps(monkeypatch):
    func = parse_function(_wide_loop(64))
    problem = live_variable_problem(func, analyses(func).cfg())
    assert len(problem.universe) * len(problem.gen) >= 4096
    interned = []
    init = FactUniverse.__init__
    monkeypatch.setattr(
        FactUniverse,
        "__init__",
        lambda self, facts=(): interned.append(1) or init(self, facts),
    )
    solves = GLOBAL_STATS.solves
    result = live_variables(func)
    assert GLOBAL_STATS.solves == solves + 1  # one solve, on frozensets
    assert not interned and isinstance(result.at_entry("b0"), frozenset)
    # sweeps, not worklist pops: the first visits b63 before b1, its
    # back-edge successor; the second carries r1 from b1 around the loop
    assert result.iterations == 2
    assert "r1" in result.at_exit("b63")


# -- convergence cap ---------------------------------------------------------

LOOP = """
function f(r0, r1) {
entry:
    r2 <- add r0, r1
    jmp -> head
head:
    r3 <- add r0, r1
    cbr r3 -> head, done
done:
    ret r2
}
"""


def test_reference_solver_convergence_cap():
    func = parse_function(LOOP)
    cfg = analyses(func).cfg()
    problem = live_variable_problem(func, cfg)
    with pytest.raises(DataflowConvergenceError) as excinfo:
        solve(problem, cfg, max_sweeps=0)
    diag = excinfo.value.diagnostic
    assert diag.checker == "dataflow"
    assert diag.function == "f"
    assert "convergence cap" in diag.message


def test_mask_problems_hit_the_same_convergence_cap():
    func = parse_function(LOOP)
    cfg = analyses(func).cfg()
    problem = live_variable_problem(func, cfg)
    masked, _ = _on_masks(problem)
    sweeps = solve(masked, cfg).iterations
    assert sweeps == solve(problem, cfg).iterations == 2
    assert solve(masked, cfg, max_sweeps=sweeps).iterations == sweeps
    for cap in (0, sweeps - 1):
        with pytest.raises(DataflowConvergenceError) as excinfo:
            solve(masked, cfg, max_sweeps=cap)
        assert excinfo.value.cap == cap and excinfo.value.function == "f"
