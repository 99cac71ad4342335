"""The extended pipeline (distribution + LVN + strength reduction)."""

import pytest

from repro.bench.suite import SUITE, suite_routines
from repro.frontend import compile_program
from repro.interp import Interpreter, Memory
from repro.ir import Opcode, validate_function
from repro.pipeline import compile_source, run_routine
from repro.pm.registry import get_sequence, resolve_spec

suite_routines()


def run_extended(routine):
    module = compile_program(routine.source)
    for func in module:
        for spec in get_sequence("extended"):
            resolve_spec(spec)(func)
        validate_function(func)
    memory = Memory()
    args = list(routine.args)
    bases = []
    for values, elemsize in routine.fresh_arrays():
        base = memory.allocate_array(values, elemsize)
        bases.append((base, len(values), elemsize))
        args.append(base)
    result = Interpreter(module).run(routine.entry_name, args, memory)
    arrays = [memory.read_array(b, n, s) for b, n, s in bases]
    return result, arrays


@pytest.mark.parametrize(
    "name", ["sgemm", "saxpy", "heat", "decomp", "fmin", "spline", "urand"]
)
def test_extended_matches_distribution_results(name):
    routine = SUITE[name]
    module = compile_source(routine.source, level="distribution")
    reference = run_routine(
        module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    result, arrays = run_extended(routine)
    if reference.value is not None:
        assert result.value == pytest.approx(reference.value, rel=1e-9)
    for got, want in zip(arrays, reference.arrays):
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", ["sgemm", "decomp", "heat"])
def test_extended_beats_distribution_on_ops_and_muls(name):
    routine = SUITE[name]
    module = compile_source(routine.source, level="distribution")
    reference = run_routine(
        module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    result, _ = run_extended(routine)
    # strength reduction trades multiplies for adds at equal op counts and
    # pays a few one-time preheader setups — total ops may tick up a hair
    assert result.dynamic_count <= reference.dynamic_count * 1.01
    assert result.op_counts[Opcode.MUL] < reference.result.op_counts[Opcode.MUL]
