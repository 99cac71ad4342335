"""Dataflow-solver gate runner (``repro bench dataflow``).

Every dataflow problem in the pipeline has one solver, so the bench
counts the work of two stages over the benchmark suite:

* **PRE stage** — for every suite function that computes an
  expression, the PRE + liveness portion of the pipeline from a cold
  analysis cache: ``prepare_pre`` (CFG and expression table, interning,
  the availability and anticipability solves on the mask engine), both
  placement systems (the lazy-code-motion LATER system and the
  bidirectional Morel–Renvoise PPIN/PPOUT system) and a liveness
  request, as the passes make them.
* **Framework stage** — every suite function's liveness, availability
  and anticipability problems, stated as
  :class:`~repro.dataflow.framework.DataflowProblem`\\ s and solved with
  :func:`repro.dataflow.framework.solve`.

Each stage reports a work counter that depends only on the IR and the
iteration order, never on machine speed: the mask engine's worklist
pops and updates over the PRE stage (CI gates the pops with
``--max-pops``) and the frozenset solver's sweeps over the framework
stage.  The analysis-manager hit rate over a full suite compile rides
along.  The report regenerates byte for byte; the solvers' time is
measured by perfbench.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import manager as analysis_manager
from repro.bench.report import finish
from repro.bench.suite import suite_routines
from repro.cfg.graph import ControlFlowGraph
from repro.dataflow import bitset
from repro.dataflow.expressions import ExpressionTable
from repro.dataflow.framework import solve
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
    """One function's PRE + liveness stage, from a cold analysis cache.

    Mirrors the pass structure — each placement system calls
    ``prepare_pre`` and the liveness consumer asks the manager — so the
    first ``prepare_pre`` pays CFG and table construction, interning and
    both mask solves, while the second and the liveness request go
    through the cache.
    """
    from repro.passes.pre import solve_lcm_placement
    from repro.passes.pre_common import prepare_pre
    from repro.passes.pre_mr import solve_mr_placement

    manager = analysis_manager.analyses(func)
    manager.invalidate_all()
    solve_lcm_placement(prepare_pre(func))
    solve_mr_placement(prepare_pre(func))
    manager.liveness()


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

    bitset.GLOBAL_STATS.reset()
    for func in inputs:
        _run_pre_stage(func)
    work = bitset.GLOBAL_STATS.as_dict()
    bitset.GLOBAL_STATS.reset()
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
        f"  PRE stage, mask engine ({pre['functions']} functions): "
        f"{pre['solves']} solves, {pre['pops']} worklist pops, "
        f"{pre['updates']} updates",
        f"  framework stage, frozenset solver ({framework['problems']} "
        f"problems): {framework['sweeps']} sweeps",
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
                f"{pops} worklist pops exceed the --max-pops bound of "
                f"{max_pops} (solver regression)"
            )
        else:
            print(f"  pop bound: {pops} <= {max_pops} (ok)")
    return finish(report, failures, json_out)
