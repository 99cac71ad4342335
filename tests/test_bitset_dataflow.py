"""The bitset dataflow engine against the frozenset solver.

Property tests: on randomized CFGs (the same fuel-bounded generator the
IR fuzzer uses) the mask engine and :func:`repro.dataflow.framework.solve`
must be result-identical for all four problem shapes (forward/backward
× union/intersection), and the PRE context's mask solves must match
frozenset solves of the same problems.  No production code lowers a
``DataflowProblem`` to masks, so the lowering these tests need lives
here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_ir_fuzz import build_fuzz_function

from repro.analysis.manager import analyses
from repro.dataflow.bitset import (
    GLOBAL_STATS,
    FactUniverse,
    MaskProblem,
    SparseSet,
    solve_masks,
)
from repro.dataflow.framework import (
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

# -- FactUniverse / SparseSet units -----------------------------------------


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


def test_sparse_set_add_pop_remove():
    ss = SparseSet(8)
    assert ss.add(3) and ss.add(5) and not ss.add(3)
    assert 3 in ss and 5 in ss and 4 not in ss
    assert ss.remove(3) and not ss.remove(3)
    assert len(ss) == 1 and ss.pop() == 5 and not ss


# -- engine equivalence on randomized CFGs ----------------------------------


def _solve_on_masks(problem, cfg):
    """Lower ``problem`` to masks, solve it with the mask engine and lift
    the fixpoint back: ``(inn, out)`` as per-block frozensets."""
    forward = problem.direction == "forward"
    order = cfg.reverse_postorder if forward else cfg.postorder
    reachable = set(order)
    neighbours = cfg.preds if forward else cfg.succs
    universe = FactUniverse(sorted(problem.universe, key=repr))
    masked = solve_masks(
        MaskProblem(
            universe=universe,
            meet=problem.meet,
            order=order,
            sources={
                lbl: [n for n in neighbours[lbl] if n in reachable]
                for lbl in order
            },
            boundary_blocks=frozenset(
                lbl
                for lbl in order
                if (lbl == cfg.entry if forward else not cfg.succs[lbl])
            ),
            gen={lbl: universe.mask_of(problem.gen[lbl]) for lbl in order},
            kill={lbl: universe.mask_of(problem.kill[lbl]) for lbl in order},
            boundary=universe.mask_of(problem.boundary),
        )
    )
    before = {lbl: universe.facts_of(m) for lbl, m in masked.before.items()}
    after = {lbl: universe.facts_of(m) for lbl, m in masked.after.items()}
    # for backward problems "before" is the value at block *exit*
    return (before, after) if forward else (after, before)


def _assert_engines_agree(problem, cfg):
    result = solve(problem, cfg)
    assert _solve_on_masks(problem, cfg) == (result.inn, result.out)


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
        _assert_engines_agree(problem, cfg)


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


# -- one solver per problem -------------------------------------------------


def _wide_loop(n_blocks: int) -> str:
    """A loop of ``n_blocks`` blocks, each defining one new register."""
    lines = ["function wide(r0) {"]
    for i in range(n_blocks):
        lines += [f"b{i}:", f"    r{i + 1} <- add r{i}, r0"]
        if i + 1 < n_blocks:
            lines.append(f"    jmp -> b{i + 1}")
    lines += [f"    cbr r{n_blocks} -> b1, done", "done:", f"    ret r{n_blocks}", "}"]
    return "\n".join(lines)


def test_wide_liveness_solves_on_frozensets_and_counts_sweeps():
    func = parse_function(_wide_loop(64))
    problem = live_variable_problem(func, analyses(func).cfg())
    assert len(problem.universe) * len(problem.gen) >= 4096
    solves = GLOBAL_STATS.solves
    result = live_variables(func)
    assert GLOBAL_STATS.solves == solves  # the mask engine never ran
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
