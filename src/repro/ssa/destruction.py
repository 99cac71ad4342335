"""SSA destruction: replace φ-nodes with copies on incoming edges.

The paper's forward propagation does exactly this first step: "we first
remove each φ-node x <- φ(y, z) by inserting the copies x <- y and x <- z
at the end of the appropriate predecessor blocks ... (if necessary, the
entering edges are split)" (section 3.1).

Copies for one edge form a *parallel* copy; sequentializing naively breaks
when φ-targets feed each other (the classic swap problem), so cycles are
broken with a fresh temporary.
"""

from __future__ import annotations

from repro.cfg.edges import split_edge
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


def sequentialize_parallel_copy(
    pairs: list[tuple[str, str]], fresh: "callable"
) -> list[tuple[str, str]]:
    """Order a parallel copy ``{t_i <- s_i}`` into sequential copies.

    Returns (target, source) pairs to emit in order.  ``fresh()`` must
    return an unused register name; it is called once per copy cycle.
    Self-copies are dropped.
    """
    # drop self-copies and exact duplicates (GVN renaming can make two
    # φ-nodes of one block identical)
    pending = list(dict.fromkeys((t, s) for t, s in pairs if t != s))
    targets = {t for t, _ in pending}
    if len(targets) != len(pending):
        raise ValueError("parallel copy defines a target twice")
    result: list[tuple[str, str]] = []
    while pending:
        emitted = False
        for i, (t, s) in enumerate(pending):
            if all(s2 != t for _, s2 in pending):
                result.append((t, s))
                pending.pop(i)
                emitted = True
                break
        if emitted:
            continue
        # every remaining target is also a pending source: a cycle.
        # break it by saving one target in a temp.
        t, s = pending[0]
        tmp = fresh()
        result.append((tmp, t))
        pending = [(t2, tmp if s2 == t else s2) for t2, s2 in pending]
    return result


def destroy_ssa(func: Function) -> Function:
    """Remove every φ-node, in place; returns ``func``.

    Critical incoming edges are split so the copies execute only on the
    intended edge.  The φ-target names survive as ordinary registers
    ("variable names" in the paper's sense — defined only by copies).
    """
    phi_blocks = [blk for blk in func.blocks if blk.phis()]
    if not phi_blocks:
        return func
    # split critical edges into blocks containing φ-nodes.  A split only
    # redirects the edge it splits, so one predecessor map serves the phase.
    preds_of = func.predecessor_map()
    blocks = func.block_map()
    split = False
    for blk in phi_blocks:
        for pred in preds_of[blk.label]:
            if len(blocks[pred].successor_labels()) > 1:
                split_edge(func, pred, blk.label)
                split = True

    if split:
        preds_of = func.predecessor_map()
        blocks = func.block_map()
    for blk in phi_blocks:
        phis = blk.phis()
        for pred in preds_of[blk.label]:
            pairs = []
            for phi in phis:
                for src, lbl in zip(phi.srcs, phi.phi_labels):
                    if lbl == pred:
                        pairs.append((phi.target, src))
            ordered = sequentialize_parallel_copy(pairs, func.new_reg)
            pred_blk = blocks[pred]
            for target, source in ordered:
                pred_blk.insert_before_terminator(
                    Instruction(Opcode.COPY, target=target, srcs=[source])
                )
        blk.instructions = [inst for inst in blk.instructions if not inst.is_phi]
    return func
