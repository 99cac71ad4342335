"""Dataflow-solver microbenchmark (``repro bench dataflow``).

Every dataflow problem in the pipeline has one solver, so the bench
times and counts two stages over the benchmark suite:

* **PRE stage** — for every suite function that computes an
  expression, the PRE + liveness portion of the pipeline from a cold
  analysis cache: ``prepare_pre`` (CFG and expression table, interning,
  the availability and anticipability solves on the mask engine), both
  placement systems (the lazy-code-motion LATER system and the
  bidirectional Morel–Renvoise PPIN/PPOUT system) and a liveness
  request, as the passes make them.  The analysis manager's caching is
  part of what is timed.
* **Framework stage** — every suite function's liveness, availability
  and anticipability problems, stated as
  :class:`~repro.dataflow.framework.DataflowProblem`\\ s and solved with
  :func:`repro.dataflow.framework.solve`.

Each stage reports a best-of-``repeat`` time and a work counter that
depends only on the IR and the iteration order, never on machine speed:
the mask engine's worklist pops and updates over the PRE stage (CI
gates the pops with ``--max-pops``) and the frozenset solver's sweeps
over the framework stage.  The analysis-manager hit rate over a full
suite compile rides along.  ``--json`` writes the report.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

from repro.analysis import manager as analysis_manager
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
from repro.pipeline import OptLevel, compile_source


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
    """Clones normalized once up front, so the IR shape is stable across
    repetitions; functions without expressions have no PRE stage."""
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


def _best_of(repeat: int, run) -> float:
    """The fastest of ``repeat`` timed calls of ``run``, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _cache_rates() -> dict:
    """Analysis-cache counters for one suite compile at ``distribution``."""
    analysis_manager.GLOBAL_STATS.reset()
    for routine in suite_routines():
        compile_source(routine.source, level=OptLevel.DISTRIBUTION, verify="off")
    stats = analysis_manager.GLOBAL_STATS.as_dict()
    analysis_manager.GLOBAL_STATS.reset()
    return stats


def run_bench(repeat: int = 3) -> dict:
    """Run both stages and the cache compile; return the JSON-ready report."""
    funcs = _workload()
    problems = _framework_problems(funcs)
    inputs = _pre_inputs(funcs)

    def pre_stage() -> None:
        for func in inputs:
            _run_pre_stage(func)

    def framework_stage() -> int:
        return sum(solve(problem, cfg).iterations for cfg, problem in problems)

    bitset.GLOBAL_STATS.reset()
    pre_stage()
    work = bitset.GLOBAL_STATS.as_dict()
    bitset.GLOBAL_STATS.reset()
    sweeps = framework_stage()

    return {
        "benchmark": "dataflow",
        "repeat": repeat,
        "functions": len(funcs),
        "pre_stage": {
            "functions": len(inputs),
            "seconds": round(_best_of(repeat, pre_stage), 6),
            **work,
        },
        "framework_stage": {
            "problems": len(problems),
            "seconds": round(_best_of(repeat, framework_stage), 6),
            "sweeps": sweeps,
        },
        "analysis_cache": _cache_rates(),
    }


def _format(report: dict) -> str:
    pre = report["pre_stage"]
    framework = report["framework_stage"]
    cache = report["analysis_cache"]
    return "\n".join([
        f"dataflow bench: {report['functions']} functions, "
        f"best of {report['repeat']}",
        f"  PRE stage, mask engine ({pre['functions']} functions): "
        f"{pre['seconds']:.4f} s, {pre['solves']} solves, "
        f"{pre['pops']} worklist pops, {pre['updates']} updates",
        f"  framework stage, frozenset solver ({framework['problems']} "
        f"problems): {framework['seconds']:.4f} s, "
        f"{framework['sweeps']} sweeps",
        f"  analysis cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({100 * cache['hit_rate']:.1f}% hit rate, "
        f"{cache['invalidations']} invalidations)",
    ])


def main(
    repeat: int = 3,
    json_out: Optional[str] = None,
    max_pops: Optional[int] = None,
) -> int:
    report = run_bench(repeat=repeat)
    print(_format(report))
    if json_out:
        with open(json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if max_pops is not None:
        pops = report["pre_stage"]["pops"]
        if pops > max_pops:
            print(
                f"dataflow bench: FAIL — {pops} worklist pops exceed the "
                f"--max-pops bound of {max_pops} (solver regression)",
                file=sys.stderr,
            )
            return 1
        print(f"  pop bound: {pops} <= {max_pops} (ok)")
    return 0
