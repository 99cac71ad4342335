"""Verification of every suite routine.

Each routine must:

1. compile at every optimization level;
2. produce the same return value and array effects as its Python
   reference (approximately, for floating point — reassociation is
   allowed to change rounding, as in FORTRAN);
3. agree across all levels within floating-point reassociation slack.
"""

import math

import pytest

from repro.bench import suite_routines
from repro.pipeline import OptLevel, compile_source, run_routine


def _approx_equal(a, b, rel=1e-9, abs_tol=1e-9):
    if isinstance(a, float) or isinstance(b, float):
        return a == pytest.approx(b, rel=rel, abs=abs_tol)
    return a == b


def _approx_list(xs, ys):
    assert len(xs) == len(ys)
    return all(_approx_equal(x, y) for x, y in zip(xs, ys))


ROUTINES = suite_routines()


@pytest.mark.parametrize("routine", ROUTINES, ids=[r.name for r in ROUTINES])
def test_unoptimized_matches_reference(routine):
    module = compile_source(routine.source)
    run = run_routine(module, routine.entry_name, routine.args, routine.fresh_arrays())

    if routine.reference is None:
        pytest.skip("no reference")
    ref_arrays = [list(values) for values, _ in routine.arrays]
    ref_value = routine.reference(*routine.args, *ref_arrays)

    if ref_value is not None or run.value is not None:
        assert _approx_equal(run.value, ref_value), routine.name
    for got, want in zip(run.arrays, ref_arrays):
        assert _approx_list(got, want), routine.name


@pytest.mark.parametrize("routine", ROUTINES, ids=[r.name for r in ROUTINES])
@pytest.mark.parametrize("level", list(OptLevel), ids=[l.value for l in OptLevel])
def test_optimized_matches_unoptimized(routine, level):
    base_module = compile_source(routine.source)
    base = run_routine(
        base_module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    opt_module = compile_source(routine.source, level=level.value)
    opt = run_routine(
        opt_module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    if base.value is not None or opt.value is not None:
        assert _approx_equal(opt.value, base.value), (routine.name, level)
    for got, want in zip(opt.arrays, base.arrays):
        assert _approx_list(got, want), (routine.name, level)


@pytest.mark.parametrize("routine", ROUTINES, ids=[r.name for r in ROUTINES])
def test_counts_versus_baseline(routine):
    """Table 1's methodology: each level measured against the baseline.

    PRE never lengthens a path, so PARTIAL must not exceed BASELINE (tiny
    slack for copies coalescing cannot remove).  Reassociation and
    distribution are heuristics; the paper's Table 1 shows per-routine
    degradations as bad as −12%, so they get a matching allowance.
    """
    counts = {}
    for level in OptLevel:
        module = compile_source(routine.source, level=level.value)
        counts[level] = run_routine(
            module, routine.entry_name, routine.args, routine.fresh_arrays()
        ).dynamic_count
    base = counts[OptLevel.BASELINE]
    assert counts[OptLevel.PARTIAL] <= base * 1.02, routine.name
    assert counts[OptLevel.REASSOCIATION] <= base * 1.15, routine.name
    assert counts[OptLevel.DISTRIBUTION] <= base * 1.15, routine.name


def test_suite_is_substantial():
    assert len(ROUTINES) >= 35
    origins = {r.origin for r in ROUTINES}
    assert origins == {"fmm", "blas", "synthetic"}
