"""Dataflow-solver gate runner (``repro bench dataflow``).

Every gen/kill problem in the pipeline is solved by
:func:`repro.dataflow.framework.solve`, so the bench counts its work
over two stages of the benchmark suite:

* **PRE stage** — for every suite function that computes an
  expression, the PRE portion of the pipeline from a cold analysis
  cache: ``prepare_pre`` (CFG and expression table, interning, the
  availability and anticipability solves on masks) and both placement
  systems (the lazy-code-motion LATER system and the bidirectional
  Morel–Renvoise PPIN/PPOUT system), as the passes make them.  It asks
  for no liveness: the framework stage already solves it for every
  function, and the stage's counts stay those of its mask problems.
* **Framework stage** — every suite function's liveness, availability
  and anticipability problems, stated on frozensets as
  :class:`~repro.dataflow.framework.DataflowProblem`\\ s.

Each stage reports a work counter that depends only on the IR and the
iteration order, never on machine speed: the solver's solves, pops and
updates over the PRE stage (CI gates the pops with ``--max-pops``) and
its sweeps over the framework stage.  The analysis-manager hit rate
over a full suite compile rides along.  The report regenerates byte for
byte; the solver's time is measured by perfbench.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import manager as analysis_manager
from repro.bench.report import finish
from repro.bench.suite import suite_routines
from repro.cfg.graph import ControlFlowGraph
from repro.dataflow.expressions import ExpressionTable
from repro.dataflow.framework import GLOBAL_STATS, solve
from repro.dataflow.problems import (
    anticipable_expression_problem,
    available_expression_problem,
    live_variable_problem,
)
from repro.pipeline import compile_source


def _workload() -> list:
    """Every suite routine's functions, unoptimized (frontend output)."""
    funcs = []
    for routine in suite_routines():
        module = compile_source(routine.source, level=None, verify="off")
        funcs.extend(module.functions.values())
    return funcs


def _framework_problems(funcs) -> list:
    """The framework stage's ``(cfg, problem)`` pairs: liveness, plus
    availability and anticipability where the function has expressions."""
    items = []
    for func in funcs:
        cfg = ControlFlowGraph(func)
        items.append((cfg, live_variable_problem(func, cfg)))
        table = analysis_manager.analyses(func).expressions()
        if table.keys:
            items.append((cfg, available_expression_problem(func, table)))
            items.append((cfg, anticipable_expression_problem(func, table)))
    return items


def _pre_inputs(funcs) -> list:
    """Normalized clones of the functions that have a PRE stage (those
    that compute an expression)."""
    from repro.passes.pre_common import normalize_for_pre

    inputs = []
    for func in funcs:
        clone = func.clone()
        normalize_for_pre(clone)
        if ExpressionTable.build(clone).keys:
            inputs.append(clone)
    return inputs


def _run_pre_stage(func) -> None:
    """One function's PRE stage, from a cold analysis cache.

    Mirrors the pass structure — each placement system calls
    ``prepare_pre`` — so the first call pays CFG and table
    construction, interning and both mask solves, while the second goes
    through the cache.
    """
    from repro.passes.pre import solve_lcm_placement
    from repro.passes.pre_common import prepare_pre
    from repro.passes.pre_mr import solve_mr_placement

    manager = analysis_manager.analyses(func)
    manager.invalidate_all()
    solve_lcm_placement(prepare_pre(func))
    solve_mr_placement(prepare_pre(func))


def _cache_rates() -> dict:
    """Analysis-cache counters for one suite compile at ``distribution``."""
    analysis_manager.GLOBAL_STATS.reset()
    for routine in suite_routines():
        compile_source(routine.source, level="distribution", verify="off")
    stats = analysis_manager.GLOBAL_STATS.as_dict()
    analysis_manager.GLOBAL_STATS.reset()
    return stats


def run_bench() -> dict:
    """Run both stages and the cache compile; return the JSON-ready report."""
    funcs = _workload()
    problems = _framework_problems(funcs)
    inputs = _pre_inputs(funcs)

    GLOBAL_STATS.reset()
    for func in inputs:
        _run_pre_stage(func)
    work = GLOBAL_STATS.as_dict()
    GLOBAL_STATS.reset()
    sweeps = sum(solve(problem, cfg).iterations for cfg, problem in problems)

    return {
        "benchmark": "dataflow",
        "functions": len(funcs),
        "pre_stage": {"functions": len(inputs), **work},
        "framework_stage": {"problems": len(problems), "sweeps": sweeps},
        "analysis_cache": _cache_rates(),
    }


def _format(report: dict) -> str:
    pre = report["pre_stage"]
    framework = report["framework_stage"]
    cache = report["analysis_cache"]
    return "\n".join([
        f"dataflow bench: {report['functions']} functions",
        f"  PRE stage, mask problems ({pre['functions']} functions): "
        f"{pre['solves']} solves, {pre['pops']} pops, "
        f"{pre['updates']} updates",
        f"  framework stage, frozenset problems ({framework['problems']}): "
        f"{framework['sweeps']} sweeps",
        f"  analysis cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({100 * cache['hit_rate']:.1f}% hit rate, "
        f"{cache['invalidations']} invalidations)",
    ])


def main(
    json_out: str = "BENCH_dataflow.json", max_pops: Optional[int] = None
) -> int:
    report = run_bench()
    print(_format(report))
    failures = []
    pops = report["pre_stage"]["pops"]
    if max_pops is not None:
        if pops > max_pops:
            failures.append(
                f"{pops} pops exceed the --max-pops bound of "
                f"{max_pops} (solver regression)"
            )
        else:
            print(f"  pop bound: {pops} <= {max_pops} (ok)")
    return finish(report, failures, json_out)
