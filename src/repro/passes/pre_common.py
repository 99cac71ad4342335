"""Shared preparation for both PRE solvers (and their checkers).

:mod:`repro.passes.pre` (the Drechsler–Stadel lazy-code-motion system)
and :mod:`repro.passes.pre_mr` (the bidirectional Morel–Renvoise
system) used to duplicate their whole preamble: the φ-free check,
unreachable-block removal, critical-edge splitting, CFG and
expression-table construction, and the availability/anticipability
solves.  :func:`prepare_pre` does it once, and — because both equation
systems now run on dense bit masks — also lowers every local property
(ANTLOC / COMP / TRANSP / KILL) onto one shared
:class:`~repro.dataflow.bitset.FactUniverse` of expression keys,
interned in first-occurrence order so bit positions (and the resulting
IR) are deterministic.

AVIN/AVOUT and ANTIN/ANTOUT are stated on the same universe as mask
:class:`~repro.dataflow.framework.DataflowProblem`\\ s and solved with
:func:`repro.dataflow.framework.solve`, so each PRE pass starts from the
global properties as ints and never touches a ``frozenset`` until its
placement decision is handed to :func:`repro.passes.pre.apply_placement`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.manager import analyses
from repro.cfg.edges import split_critical_edges
from repro.cfg.graph import ControlFlowGraph
from repro.dataflow.bitset import FactUniverse
from repro.dataflow.expressions import ExpressionTable
from repro.dataflow.framework import DataflowProblem, solve
from repro.ir.function import Function


@dataclass
class PREContext:
    """Everything both PRE equation systems read, lowered to bit masks."""

    func: Function
    cfg: ControlFlowGraph
    table: ExpressionTable
    universe: FactUniverse
    full: int
    entry: str
    reachable: set
    edges: list
    antloc: dict
    comp: dict
    transp: dict
    kill: dict
    avail_in: dict
    avail_out: dict
    ant_in: dict
    ant_out: dict

    def keys_of(self, mask: int) -> frozenset:
        """The expression keys whose bits are set in ``mask``."""
        return self.universe.facts_of(mask)

    def lift_blocks(self, masks: dict) -> dict:
        """Convert a per-block mask map to per-block key frozensets."""
        return {label: self.keys_of(mask) for label, mask in masks.items()}


def check_phi_free(func: Function) -> None:
    """Both PRE solvers run after SSA destruction; reject φ input."""
    from repro.ir.opcodes import Opcode

    for blk in func.blocks:
        for inst in blk.instructions:
            if inst.opcode is Opcode.PHI:
                raise ValueError(
                    "PRE requires phi-free code (destroy SSA first)"
                )


def normalize_for_pre(func: Function) -> None:
    """The IR normalization both PRE solvers require, in place.

    Rejects φ-bearing input, removes unreachable blocks and splits
    critical edges (edge placement needs a block per insertable edge).
    """
    check_phi_free(func)
    func.remove_unreachable_blocks()
    split_critical_edges(func)


def prepare_pre(func: Function) -> PREContext | None:
    """Normalize ``func`` and build the shared mask-level context.

    Removes unreachable blocks, splits critical edges, interns the
    expression universe, lowers the local sets, and solves availability
    and anticipability.  Returns ``None`` when the function computes no
    expressions (nothing for either solver to do).  Raises
    :class:`ValueError` on φ-bearing input.
    """
    # Cached in the AnalysisManager: a pipeline running both equation
    # systems back-to-back (pre → pre_mr) lowers and solves only once
    # when no pass mutated the IR in between.  A stamp-validated hit
    # also proves the body is unchanged since a successful
    # normalization, so the (idempotent) normalization is skipped too.
    manager = analyses(func)
    cached = manager.peek_body("pre_context")
    if cached is not None:
        return cached
    normalize_for_pre(func)
    return manager.pre_context(lambda: build_context(func))


def build_context(func: Function) -> PREContext | None:
    """The mask-level context of an already-normalized function.

    The builder :func:`prepare_pre` hands the analysis manager: it runs
    only on a cache miss, after the normalization.
    """
    manager = analyses(func)
    cfg = manager.cfg()
    table = manager.expressions()
    if not table.keys:
        return None

    universe = manager.expression_universe()
    full = universe.full_mask
    entry = cfg.entry
    reachable = cfg.reachable()
    labels = cfg.reverse_postorder

    antloc = {lbl: universe.mask_of(table.antloc[lbl]) for lbl in labels}
    comp = {lbl: universe.mask_of(table.comp[lbl]) for lbl in labels}
    transp = {lbl: universe.mask_of(table.transp[lbl]) for lbl in labels}
    kill = {lbl: full ^ transp[lbl] for lbl in labels}

    avail = solve(
        DataflowProblem(
            direction="forward",
            meet="intersection",
            universe=full,
            gen=comp,
            kill=kill,
        ),
        cfg,
    )
    ant = solve(
        DataflowProblem(
            direction="backward",
            meet="intersection",
            universe=full,
            gen=antloc,
            kill=kill,
        ),
        cfg,
    )

    return PREContext(
        func=func,
        cfg=cfg,
        table=table,
        universe=universe,
        full=full,
        entry=entry,
        reachable=reachable,
        edges=[(i, j) for i, j in cfg.edges() if i in reachable],
        antloc=antloc,
        comp=comp,
        transp=transp,
        kill=kill,
        avail_in=avail.inn,
        avail_out=avail.out,
        ant_in=ant.inn,
        ant_out=ant.out,
    )
