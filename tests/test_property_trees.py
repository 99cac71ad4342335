"""Property-based tests of the reassociation tree algebra.

Random expression trees must evaluate identically after flattening,
rank-sorting and distribution (exact for integers; floats are exercised
with dyadic rationals so reassociation cannot change rounding).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir import Opcode
from repro.passes.reassociate import (
    ConstNode,
    LeafNode,
    OpNode,
    distribute_tree,
    make_op,
    negate,
    sort_operands,
    tree_size,
)

# ---------------------------------------------------------------------------
# tree generation and direct evaluation
# ---------------------------------------------------------------------------

LEAF_NAMES = ["a", "b", "c", "d", "e"]
ENV = {"a": 3, "b": -7, "c": 11, "d": 2, "e": -1}


def evaluate(tree, env):
    if isinstance(tree, ConstNode):
        return tree.value
    if isinstance(tree, LeafNode):
        return env[tree.name]
    op = tree.op
    children = [evaluate(c, env) for c in tree.children]
    if op is Opcode.ADD:
        return sum(children)
    if op is Opcode.MUL:
        result = 1
        for value in children:
            result *= value
        return result
    if op is Opcode.MIN:
        return min(children)
    if op is Opcode.MAX:
        return max(children)
    if op is Opcode.NEG:
        return -children[0]
    if op is Opcode.AND:
        result = children[0]
        for value in children[1:]:
            result &= value
        return result
    if op is Opcode.OR:
        result = children[0]
        for value in children[1:]:
            result |= value
        return result
    if op is Opcode.XOR:
        result = children[0]
        for value in children[1:]:
            result ^= value
        return result
    raise AssertionError(op)


@st.composite
def trees(draw):
    """A random tree whose leaves carry one rank per name, as
    ``compute_ranks`` gives each register exactly one rank."""
    ranks = draw(st.fixed_dictionaries({name: st.integers(0, 4) for name in LEAF_NAMES}))
    return draw(_subtrees(ranks))


@st.composite
def _subtrees(draw, ranks, depth=0):
    kind = draw(st.integers(0, 5)) if depth < 4 else draw(st.integers(0, 1))
    if kind == 0:
        return ConstNode(draw(st.integers(-5, 5)))
    if kind == 1:
        name = draw(st.sampled_from(LEAF_NAMES))
        return LeafNode(name, ranks[name])
    op = draw(
        st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.MIN, Opcode.MAX, Opcode.NEG])
    )
    if op is Opcode.NEG:
        return negate(draw(_subtrees(ranks, depth + 1)))
    arity = draw(st.integers(2, 3))
    children = [draw(_subtrees(ranks, depth + 1)) for _ in range(arity)]
    return make_op(op, children)


@settings(max_examples=300, deadline=None)
@given(tree=trees())
def test_sorting_preserves_value(tree):
    assert evaluate(sort_operands(tree), ENV) == evaluate(tree, ENV)


@settings(max_examples=300, deadline=None)
@given(tree=trees())
def test_distribution_preserves_value(tree):
    assert evaluate(distribute_tree(tree), ENV) == evaluate(tree, ENV)


@settings(max_examples=200, deadline=None)
@given(tree=trees())
def test_sorting_is_idempotent(tree):
    once = sort_operands(tree)
    assert sort_operands(once) == once


@settings(max_examples=200, deadline=None)
@given(tree=trees())
def test_sorted_operands_are_rank_monotone(tree):
    def check(node):
        if not isinstance(node, OpNode):
            return
        from repro.ir.opcodes import ASSOCIATIVE

        if node.op in ASSOCIATIVE:
            ranks = [child.rank for child in node.children]
            assert ranks == sorted(ranks)
        for child in node.children:
            check(child)

    check(sort_operands(tree))


@settings(max_examples=200, deadline=None)
@given(tree=trees())
def test_no_nested_same_op_chains_after_make_op(tree):
    """Flattening invariant: an associative node never has a direct child
    with the same opcode."""
    from repro.ir.opcodes import ASSOCIATIVE

    def check(node):
        if not isinstance(node, OpNode):
            return
        if node.op in ASSOCIATIVE:
            for child in node.children:
                assert not (isinstance(child, OpNode) and child.op is node.op)
        for child in node.children:
            check(child)

    check(sort_operands(tree))


@settings(max_examples=200, deadline=None)
@given(tree=trees())
def test_rank_is_max_of_leaf_ranks(tree):
    def leaf_ranks(node):
        if isinstance(node, ConstNode):
            return [0]
        if isinstance(node, LeafNode):
            return [node.leaf_rank]
        out = []
        for child in node.children:
            out.extend(leaf_ranks(child))
        return out

    assert tree.rank == max(leaf_ranks(tree))


_EXAMPLE_RANKS = {"a": 1, "b": 2, "c": 3, "d": 4}


def _product_of_sums(left: str, right: str):
    """Two sums multiplied, one operand per character: a digit is a
    constant, a letter a leaf of the rank ``_EXAMPLE_RANKS`` gives it."""

    def operand(char: str):
        if char.isdigit():
            return ConstNode(int(char))
        return LeafNode(char, _EXAMPLE_RANKS[char])

    return make_op(
        Opcode.MUL,
        [make_op(Opcode.ADD, [operand(c) for c in side]) for side in (left, right)],
    )


@settings(max_examples=150, deadline=None)
@given(tree=trees())
# drawn once with `a` at mixed ranks, which no register has (3 -> 17 ops)
@example(tree=_product_of_sums("00aa", "0a0aa"))
# with one rank per name this grew to 17 as well, until products stopped
# being distributed a second time over the multiplier's sum
@example(tree=_product_of_sums("00ad", "0b0ac"))
def test_distribution_never_loses_operations_catastrophically(tree):
    """Partial distribution may add multiplies, but boundedly (each sum
    split introduces at most one product per rank class)."""
    before = tree_size(tree)
    after = tree_size(distribute_tree(tree))
    assert after <= 4 * before + 4


@settings(max_examples=150, deadline=None)
@given(tree=trees())
def test_emission_matches_direct_evaluation(tree):
    """Emitting a tree to ILOC and interpreting it gives evaluate()."""
    from repro.interp import run_function
    from repro.ir.function import Function
    from repro.ir.instructions import Instruction
    from repro.passes.reassociate import emit_tree

    func = Function("t", params=[f"v_{n}" for n in LEAF_NAMES])
    blk = func.add_block("entry")
    renamed = _rename_leaves(tree)
    out = []
    reg = emit_tree(renamed, func, out, memo={})
    blk.instructions.extend(out)
    blk.instructions.append(Instruction(Opcode.RET, srcs=[reg]))
    args = [ENV[name] for name in LEAF_NAMES]
    assert run_function(func, args).value == evaluate(tree, ENV)


def _rename_leaves(tree):
    if isinstance(tree, LeafNode):
        return LeafNode(f"v_{tree.name}", tree.leaf_rank)
    if isinstance(tree, OpNode):
        return OpNode(
            tree.op,
            tuple(_rename_leaves(c) for c in tree.children),
            callee=tree.callee,
        )
    return tree
