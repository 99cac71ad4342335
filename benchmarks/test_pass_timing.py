"""Compile-time benchmarks: how long each pass takes on a standard kernel.

The paper's optimizer ran each pass as a Unix filter; these benches time
our passes the same way — each on the front end's output for the sgemm
kernel (plus the enablers' output where a pass runs later in the
pipeline), so regressions in pass complexity show up.
"""

import pytest

from repro.bench.suite import SUITE, suite_routines
from repro.frontend import compile_program
from repro.passes import (
    clean,
    coalesce,
    dead_code_elimination,
    global_reassociation,
    global_value_numbering,
    local_value_numbering,
    partial_redundancy_elimination,
    peephole,
    sparse_conditional_constant_propagation,
    strength_reduction,
)

suite_routines()
KERNEL = SUITE["sgemm"].source


def fresh_function():
    return compile_program(KERNEL)["sgemm"]


def after_enablers():
    func = fresh_function()
    global_reassociation(func, distribute=True)
    global_value_numbering(func)
    return func


@pytest.mark.parametrize(
    "pass_fn",
    [
        sparse_conditional_constant_propagation,
        peephole,
        dead_code_elimination,
        coalesce,
        clean,
        local_value_numbering,
        strength_reduction,
        partial_redundancy_elimination,
    ],
    ids=lambda fn: fn.__name__,
)
def test_benchmark_pass_on_frontend_output(benchmark, pass_fn):
    benchmark.pedantic(
        lambda: pass_fn(fresh_function()), rounds=3, iterations=1
    )


def test_benchmark_reassociation(benchmark):
    benchmark.pedantic(
        lambda: global_reassociation(fresh_function(), distribute=True),
        rounds=3,
        iterations=1,
    )


def test_benchmark_gvn(benchmark):
    def run():
        func = fresh_function()
        global_reassociation(func, distribute=True)
        global_value_numbering(func)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_benchmark_pre_after_enablers(benchmark):
    benchmark.pedantic(
        lambda: partial_redundancy_elimination(after_enablers()),
        rounds=3,
        iterations=1,
    )


def test_benchmark_full_distribution_level(benchmark):
    from repro.pm.manager import PassManager

    benchmark.pedantic(
        lambda: PassManager("distribution").run_function(fresh_function()),
        rounds=3,
        iterations=1,
    )
