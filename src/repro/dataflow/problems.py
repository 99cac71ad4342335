"""Concrete data-flow problems: liveness, availability, anticipability,
definite assignment."""

from __future__ import annotations

from repro.analysis.manager import analyses
from repro.cfg.graph import ControlFlowGraph
from repro.dataflow.expressions import ExpressionTable
from repro.dataflow.framework import DataflowProblem, DataflowResult, solve
from repro.ir.function import Function


def _phi_uses_from(func: Function, cfg: ControlFlowGraph) -> dict[str, set[str]]:
    """Registers each block feeds into successors' φ-nodes (edge uses)."""
    phi_uses_from: dict[str, set[str]] = {label: set() for label in cfg.labels}
    for blk in func.blocks:
        for phi in blk.phis():
            for src, pred in zip(phi.srcs, phi.phi_labels):
                if pred in phi_uses_from:
                    phi_uses_from[pred].add(src)
    return phi_uses_from


def live_variable_problem(
    func: Function, cfg: ControlFlowGraph | None = None
) -> DataflowProblem:
    """The live-variable problem (backward, union), unsolved.

    :func:`live_variables` solves it and applies the φ edge-use
    post-pass; ``repro bench dataflow`` counts the solver's sweeps over
    it.
    """
    from repro.ir.opcodes import Opcode

    cfg = cfg if cfg is not None else analyses(func).cfg()
    universe = frozenset(func.all_registers())
    gen: dict[str, frozenset] = {}
    kill: dict[str, frozenset] = {}
    phi_uses_from = _phi_uses_from(func, cfg)

    for blk in func.blocks:
        upward: set[str] = set()
        defined: set[str] = set()
        for inst in blk.instructions:
            if inst.opcode is Opcode.PHI:
                # φ inputs are used on the incoming edges, not here
                if inst.target is not None:
                    defined.add(inst.target)
                continue
            for use in inst.srcs:
                if use not in defined:
                    upward.add(use)
            if inst.target is not None:
                defined.add(inst.target)
        # uses feeding successors' φ-nodes happen at the end of this block
        for reg in phi_uses_from[blk.label]:
            if reg not in defined:
                upward.add(reg)
        gen[blk.label] = frozenset(upward)
        kill[blk.label] = frozenset(defined)

    return DataflowProblem(
        direction="backward",
        meet="union",
        universe=universe,
        gen=gen,
        kill=kill,
    )


def live_variables(func: Function, cfg: ControlFlowGraph | None = None) -> DataflowResult:
    """Live-variable analysis (backward, union).

    ``result.at_entry(b)`` is LiveIn(b); ``result.at_exit(b)`` is LiveOut(b).
    PHI uses are charged to the predecessor supplying them (they occur "on
    the edge"), which is the correct convention for liveness on SSA-ish
    code with φ-nodes; on φ-free code it changes nothing.
    """
    cfg = cfg if cfg is not None else analyses(func).cfg()
    phi_uses_from = _phi_uses_from(func, cfg)
    result = solve(live_variable_problem(func, cfg), cfg)
    # post-pass: registers feeding a successor φ are live at block exit
    for blk in func.blocks:
        if blk.label in result.out:
            extra = frozenset(phi_uses_from[blk.label])
            if extra - result.out[blk.label]:
                result.out[blk.label] = result.out[blk.label] | extra
    return result


def available_expression_problem(
    func: Function,
    table: ExpressionTable | None = None,
) -> DataflowProblem:
    """The available-expressions problem (forward, intersection), unsolved."""
    table = table if table is not None else analyses(func).expressions()
    return DataflowProblem(
        direction="forward",
        meet="intersection",
        universe=table.universe,
        gen=table.comp,
        kill=table.kill(),
    )


def available_expressions(
    func: Function,
    table: ExpressionTable | None = None,
    cfg: ControlFlowGraph | None = None,
) -> DataflowResult:
    """Available expressions (forward, intersection).

    An expression is available at a point when it is computed on *every*
    path from the entry and no operand has been redefined since — the
    classic global-CSE predicate (paper section 5.3, method 2).
    """
    cfg = cfg if cfg is not None else analyses(func).cfg()
    return solve(available_expression_problem(func, table), cfg)


def anticipable_expressions(
    func: Function,
    table: ExpressionTable | None = None,
    cfg: ControlFlowGraph | None = None,
) -> DataflowResult:
    """Anticipable (very busy) expressions (backward, intersection).

    An expression is anticipable at a point when every path from that
    point evaluates it before any operand is redefined.  Insertion at
    points where an expression is anticipable can never lengthen a path —
    the key safety property of PRE (paper section 2).
    """
    cfg = cfg if cfg is not None else analyses(func).cfg()
    return solve(anticipable_expression_problem(func, table), cfg)


def anticipable_expression_problem(
    func: Function,
    table: ExpressionTable | None = None,
) -> DataflowProblem:
    """The anticipable-expressions problem (backward, intersection), unsolved."""
    table = table if table is not None else analyses(func).expressions()
    return DataflowProblem(
        direction="backward",
        meet="intersection",
        universe=table.universe,
        gen=table.antloc,
        kill=table.kill(),
    )


def definite_assignment_problem(func: Function) -> DataflowProblem:
    """Registers assigned on every path to each point (forward, intersection).

    The must-dual of reaching definitions: the parameters are assigned
    at the entry, each block assigns its instructions' targets, and
    nothing is ever unassigned.  The def-use checker solves it (and its
    union-meet "some path" twin) to find undefined uses; lospre solves
    it so that a speculative insertion never reads a register that some
    path leaves undefined.
    """
    gen = {
        blk.label: frozenset(
            inst.target for inst in blk.instructions if inst.target is not None
        )
        for blk in func.blocks
    }
    return DataflowProblem(
        direction="forward",
        meet="intersection",
        universe=frozenset(func.all_registers()),
        gen=gen,
        kill={label: frozenset() for label in gen},
        boundary=frozenset(func.params),
    )
