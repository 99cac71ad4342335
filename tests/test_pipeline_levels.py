"""Unit tests for the OptLevel machinery and the compile/run driver."""

from repro.frontend import compile_program
from repro.ir import Opcode
from repro.pipeline import OptLevel, compile_source, run_routine
from repro.pipeline.driver import RoutineRun
from repro.pm.manager import PassManager
from repro.pm.registry import get_sequence, resolve_spec


def _names(level: str) -> list[str]:
    """The resolved pass functions' names of a registered sequence."""
    return [resolve_spec(spec).__name__ for spec in get_sequence(level)]


BASELINE = _names("baseline")


def test_levels_enumerate_the_papers_four_columns():
    assert [level.value for level in OptLevel] == [
        "baseline",
        "partial",
        "reassociation",
        "distribution",
    ]


def test_baseline_sequence_matches_the_paper():
    assert BASELINE == [
        "sparse_conditional_constant_propagation",
        "peephole",
        "dead_code_elimination",
        "coalesce",
        "clean",
    ]


def test_every_level_ends_with_the_baseline():
    for level in OptLevel:
        assert _names(level.value)[-len(BASELINE):] == BASELINE


def test_partial_prepends_pre_only():
    names = _names("partial")
    assert names[0] == "partial_redundancy_elimination"
    assert len(names) == len(BASELINE) + 1


def test_reassociation_orders_enablers_before_pre():
    names = _names("reassociation")
    assert names.index("reassociate[distribute=False]") < names.index(
        "global_value_numbering"
    ) < names.index("partial_redundancy_elimination")


def test_distribution_uses_distributing_reassociation():
    assert "reassociate[distribute=True]" in _names("distribution")


def test_levels_are_registry_data():
    for level in OptLevel:
        assert PassManager(level.value).specs == get_sequence(level.value)
    assert get_sequence("distribution")[0] == (
        "reassociate",
        {"distribute": True},
    )


SOURCE = """
routine square(x: int) -> int
  return x * x
end
"""


def test_compile_source_validates_output():
    module = compile_source(SOURCE, level="distribution")
    assert "square" in module


def test_compile_source_without_level_is_frontend_output():
    module = compile_source(SOURCE)
    copies = [i for i in module["square"].instructions() if i.opcode is Opcode.COPY]
    # unoptimized code has no reason to... actually square has no scalar
    # assignment, so no copies; the mul must be present
    assert any(i.opcode is Opcode.MUL for i in module["square"].instructions())


def test_run_routine_returns_structured_result():
    module = compile_source(SOURCE, level="baseline")
    run = run_routine(module, "square", [9])
    assert isinstance(run, RoutineRun)
    assert run.value == 81
    assert run.dynamic_count > 0
    assert run.arrays == []


def test_optimize_module_handles_every_function():
    module = compile_source(
        SOURCE
        + """
routine cube(x: int) -> int
  return x * square(x)
end
"""
    )
    PassManager("distribution").run_module(module)
    run = run_routine(module, "cube", [3])
    assert run.value == 27


def test_optimize_function_is_idempotent_on_counts():
    module = compile_program(SOURCE)
    func = module["square"]
    PassManager("distribution").run_function(func)
    first = run_routine(module, "square", [5]).dynamic_count
    PassManager("distribution").run_function(func)
    second = run_routine(module, "square", [5]).dynamic_count
    assert second == first
