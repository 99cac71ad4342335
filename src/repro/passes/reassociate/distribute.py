"""Distribution of multiplication over addition (paper section 3.1).

"After sorting expressions, we look for opportunities to distribute
multiplication over addition ... This distribution is not always
profitable, so we again use ranks as a guide.  In our current
implementation, we distribute a low-ranked multiplier over a
higher-ranked sum."

The paper's example: ``a + b×((c+d)+e)`` with a, b, c, d of rank 1 and e
of rank 2 distributes *partially* to ``a + b×(c+d) + b×e`` — the sum's
operands are grouped by rank and the multiplier distributed across the
groups, so PRE can hoist ``a + b×(c+d)`` even when ``b×e`` cannot move.
"A complete distribution would result in extra multiplications without
allowing any additional code motion."  It is "important to re-sort sums
after distribution", which :func:`distribute_tree` does.
"""

from __future__ import annotations

from itertools import groupby

from repro.ir.opcodes import Opcode
from repro.passes.reassociate.trees import OpNode, Tree, make_op, sort_operands


def distribute_tree(tree: Tree) -> Tree:
    """Apply rank-guided distribution bottom-up; returns the new tree."""
    return sort_operands(_distribute(tree))


def _distribute(tree: Tree) -> Tree:
    if not isinstance(tree, OpNode):
        return tree
    children = [_distribute(child) for child in tree.children]
    node = make_op(tree.op, children, callee=tree.callee)
    if not isinstance(node, OpNode) or node.op is not Opcode.MUL:
        return node
    return _distribute_product(node)


def _distribute_product(node: OpNode) -> Tree:
    """Distribute one n-ary product over its highest-ranked sum operand.

    The new products are not distributed again.  A sum left in them came
    from the multiplier, and splitting it as well would multiply the rank
    classes of two sums together: the complete distribution the paper
    avoids.
    """
    sums = [c for c in node.children if isinstance(c, OpNode) and c.op is Opcode.ADD]
    if not sums:
        return node
    # the sum being distributed over: the highest-ranked one
    target = max(sums, key=lambda c: c.rank)
    others = list(node.children)
    others.remove(target)
    if not others:
        return node
    multiplier_rank = max(o.rank for o in others)

    ordered = sorted(target.children, key=lambda c: (c.rank, c.key()))
    groups = [list(g) for _, g in groupby(ordered, key=lambda c: c.rank)]
    if len(groups) < 2 or multiplier_rank >= target.rank:
        # a low-ranked multiplier over a higher-ranked sum, with at least
        # two rank classes — otherwise distribution buys no code motion
        return node
    terms: list[Tree] = []
    for group in groups:
        group_sum = make_op(Opcode.ADD, group) if len(group) > 1 else group[0]
        terms.append(make_op(Opcode.MUL, [*others, group_sum]))
    return make_op(Opcode.ADD, terms)
