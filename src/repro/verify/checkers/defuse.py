"""Dominance-aware def-use checking (the real SSA/def-use validator).

The structural validator's old ``_validate_ssa`` was a linear scan: it
collected every definition in the function and then accepted any use of
any defined name — so a use *before* its definition, or a use whose
definitions lie only on non-dominating paths, slipped through.  This
checker solves the *definitely-assigned* dataflow problem instead
(forward, intersection — the must-dual of reaching definitions): a
register is safe at a point only when every path from the entry defines
it first.  On SSA-form code that is exactly "the definition dominates
the use"; on the non-SSA code most of the pipeline runs on it is the
interpreter's actual soundness condition (no read of an undefined
register on any executable path).

φ operands are *not* uses at the φ's own block: operand *k* is a use at
the **exit of predecessor k** (the value travels along the edge), so
each is checked against the predecessor's definitely-assigned-out set.

Two findings, split by the any-path analysis:

* a use no definition reaches on *any* path — ``error`` (reading it is
  guaranteed garbage);
* a use defined on *some* but not all paths — also ``error``: the
  interpreter traps the first time the undefined path executes, and
  every pass in this repo is required to keep definitions complete.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, NamedTuple, Optional

from repro.analysis.manager import analyses
from repro.cfg.graph import ControlFlowGraph
from repro.dataflow.framework import DataflowProblem, solve
from repro.dataflow.problems import definite_assignment_problem
from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.verify.checkers import register_checker


class UndefinedUse(NamedTuple):
    """One use that is not definitely assigned where it is read."""

    block: str
    index: int
    inst: object  # repro.ir.instructions.Instruction
    register: str
    pred: Optional[str]  # predecessor edge, for φ operands
    reachable_def: bool  # True when *some* path defines it first


def _assignment_problems(func: Function, cfg: ControlFlowGraph):
    """Solve definite (must) and possible (may) assignment."""
    must = definite_assignment_problem(func)
    return solve(must, cfg), solve(replace(must, meet="union"), cfg)


def undefined_uses(func: Function) -> Iterator[UndefinedUse]:
    """Yield every use that some executable path reaches undefined.

    Only reachable blocks are analyzed (unreachable ones are the
    ``unreachable`` checker's finding, and they have no dataflow-in).
    """
    cfg = analyses(func).cfg()
    must, may = _assignment_problems(func, cfg)
    reachable = cfg.reachable()
    blocks = func.block_map()
    for label in cfg.reverse_postorder:
        blk = blocks[label]
        defined = set(must.at_entry(label))
        possible = set(may.at_entry(label))
        for index, inst in enumerate(blk.instructions):
            if inst.is_phi:
                for src, pred in zip(inst.srcs, inst.phi_labels):
                    if pred not in reachable:
                        continue
                    if src not in must.at_exit(pred):
                        yield UndefinedUse(
                            label, index, inst, src, pred,
                            src in may.at_exit(pred),
                        )
            else:
                for use in dict.fromkeys(inst.uses()):
                    if use not in defined:
                        yield UndefinedUse(
                            label, index, inst, use, None, use in possible
                        )
            for target in inst.defs():
                defined.add(target)
                possible.add(target)


def undefined_frame_reads(func: Function) -> Iterator[UndefinedUse]:
    """Yield every ``lds`` that may read a never-written frame slot.

    Backend IR extension of the same definite-assignment discipline:
    frame slots are the backend's registers.  Slots ``0..arity-1`` hold
    the incoming arguments (written by the caller per the rvk ABI in
    :mod:`repro.backend.lower`), so they count as assigned at entry;
    every other slot must be ``sts``-written on all paths before a
    ``lds`` reads it.
    """
    slots = {
        inst.imm
        for inst in func.instructions()
        if inst.opcode in (Opcode.LDS, Opcode.STS)
    }
    if not slots:
        return
    cfg = analyses(func).cfg()
    universe = frozenset(slots) | frozenset(range(len(func.params)))
    gen = {
        blk.label: frozenset(
            inst.imm for inst in blk.instructions if inst.opcode is Opcode.STS
        )
        for blk in func.blocks
    }
    must = solve(
        DataflowProblem(
            direction="forward",
            meet="intersection",
            universe=universe,
            gen=gen,
            kill={blk.label: frozenset() for blk in func.blocks},
            boundary=frozenset(range(len(func.params))),
        ),
        cfg,
    )
    blocks = func.block_map()
    for label in cfg.reverse_postorder:
        written = set(must.at_entry(label))
        for index, inst in enumerate(blocks[label].instructions):
            if inst.opcode is Opcode.LDS and inst.imm not in written:
                yield UndefinedUse(
                    label, index, inst, f"frame[{inst.imm}]", None, True
                )
            elif inst.opcode is Opcode.STS:
                written.add(inst.imm)


@register_checker("def-use", severity="error")
def check_def_use(func: Function, report) -> None:
    """Every use must be definitely assigned (definitions dominate uses)."""
    for issue in undefined_frame_reads(func):
        report(
            f"lds reads frame slot {issue.register} not written on every "
            f"path from the entry (arity {len(func.params)})",
            block=issue.block,
            inst=issue.inst,
            index=issue.index,
        )
    for issue in undefined_uses(func):
        if issue.pred is not None:
            where = f"on the edge from {issue.pred}"
        else:
            where = f"in {issue.block}"
        kind = (
            "defined only on non-dominating paths"
            if issue.reachable_def
            else "never defined before this use"
        )
        report(
            f"use of possibly-undefined register {issue.register!r} {where} "
            f"({kind})",
            block=issue.block,
            inst=issue.inst,
            index=issue.index,
        )
