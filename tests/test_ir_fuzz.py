"""IR-level fuzzing: every pass must preserve semantics on arbitrary CFGs.

The front end only produces structured control flow; this generator
builds *arbitrary* reducible-and-irreducible CFG shapes (random branch
targets with a fuel counter guaranteeing termination) filled with random
integer arithmetic over a fixed register pool, then checks that every
optimization pass — and the full level pipelines — leave the observable
result unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import deep_copy_function, observe

from repro.ir import validate_function
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
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
from repro.passes.cse import available_cse, dominator_cse
from repro.passes.pre_mr import morel_renvoise_pre

_POOL = ["v0", "v1", "v2", "v3", "v4"]
_BIN_OPS = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.CMPLT,
    Opcode.CMPEQ,
]


def build_fuzz_function(n_blocks: int, choices: list[int]) -> Function:
    """A fuel-bounded random CFG over a fixed register pool."""
    func = Function("fuzz", params=["p0", "p1"])
    it = iter(choices)

    def pick(n):
        return next(it, 0) % n

    entry = func.add_block("entry")
    for index, reg in enumerate(_POOL):
        entry.instructions.append(
            Instruction(Opcode.LOADI, target=reg, imm=pick(13) - 6)
        )
    entry.instructions.append(Instruction(Opcode.LOADI, target="fuel", imm=40))
    entry.instructions.append(Instruction(Opcode.LOADI, target="one", imm=1))
    entry.instructions.append(Instruction(Opcode.LOADI, target="zero", imm=0))
    entry.instructions.append(Instruction(Opcode.JMP, labels=["n0"]))

    labels = [f"n{i}" for i in range(n_blocks)]
    for label in labels:
        blk = BasicBlock(label)
        # a few random computations (values bounded by masking after MUL)
        for _ in range(1 + pick(3)):
            op = _BIN_OPS[pick(len(_BIN_OPS))]
            target = _POOL[pick(len(_POOL))]
            a = _POOL[pick(len(_POOL))]
            b = (_POOL + ["p0", "p1"])[pick(len(_POOL) + 2)]
            blk.instructions.append(Instruction(op, target=target, srcs=[a, b]))
            if op is Opcode.MUL:
                blk.instructions.append(
                    Instruction(Opcode.MOD, target=target, srcs=[target, "m"])
                )
        # fuel countdown guarantees termination whatever the CFG shape
        blk.instructions.append(
            Instruction(Opcode.SUB, target="fuel", srcs=["fuel", "one"])
        )
        blk.instructions.append(
            Instruction(Opcode.CMPGT, target="go", srcs=["fuel", "zero"])
        )
        kind = pick(3)
        if kind == 0:
            blk.instructions.append(
                Instruction(
                    Opcode.CBR, srcs=["go"], labels=[labels[pick(n_blocks)], "out"]
                )
            )
        elif kind == 1:
            target1 = labels[pick(n_blocks)]
            target2 = labels[pick(n_blocks)]
            if target1 == target2:
                blk.instructions.append(
                    Instruction(
                        Opcode.CBR, srcs=["go"], labels=[target1, "out"]
                    )
                )
            else:
                # branch on data, but only while fuelled
                blk.instructions.append(
                    Instruction(Opcode.AND, target="go2", srcs=["go", "v0"])
                )
                blk.instructions.append(
                    Instruction(
                        Opcode.CBR, srcs=["go2"], labels=[target1, "out2"]
                    )
                )
        else:
            blk.instructions.append(Instruction(Opcode.JMP, labels=["out"]))
        func.blocks.append(blk)

    # out2 routes data-branches onward while fuel remains
    out2 = func.add_block("out2")
    out2.instructions.append(
        Instruction(Opcode.CBR, srcs=["go"], labels=[labels[pick(n_blocks)], "out"])
    )

    out = func.add_block("out")
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["v0", "v1"]))
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["r", "v2"]))
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["r", "v3"]))
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["r", "v4"]))
    out.instructions.append(Instruction(Opcode.RET, srcs=["r"]))

    # the MOD mask register
    entry.instructions.insert(
        0, Instruction(Opcode.LOADI, target="m", imm=2477)
    )
    func.sync_counters()
    validate_function(func)
    return func


_ALL_PASSES = [
    ("sccp", sparse_conditional_constant_propagation),
    ("peephole", peephole),
    ("dce", dead_code_elimination),
    ("coalesce", coalesce),
    ("clean", clean),
    ("pre", partial_redundancy_elimination),
    ("pre_mr", morel_renvoise_pre),
    ("gvn", global_value_numbering),
    ("lvn", local_value_numbering),
    ("reassoc", global_reassociation),
    ("reassoc_dist", lambda f: global_reassociation(f, distribute=True)),
    ("strength", strength_reduction),
    ("dom_cse", dominator_cse),
    ("avail_cse", available_cse),
]


@settings(max_examples=40, deadline=None)
@given(
    n_blocks=st.integers(2, 6),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
    args=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_every_pass_preserves_fuzzed_semantics(n_blocks, choices, args):
    func = build_fuzz_function(n_blocks, choices)
    expected = observe(func, args=list(args)).value
    for name, pass_fn in _ALL_PASSES:
        transformed = pass_fn(deep_copy_function(func))
        validate_function(transformed)
        got = observe(transformed, args=list(args)).value
        assert got == expected, f"pass {name} changed the result"


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(2, 6),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
    args=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
)
def test_full_pipelines_preserve_fuzzed_semantics(n_blocks, choices, args):
    from repro.pipeline import OptLevel
    from repro.pm.registry import get_sequence, resolve_spec

    func = build_fuzz_function(n_blocks, choices)
    expected = observe(func, args=list(args)).value
    for level in OptLevel:
        transformed = deep_copy_function(func)
        for spec in get_sequence(level.value):
            resolve_spec(spec)(transformed)
        validate_function(transformed)
        got = observe(transformed, args=list(args)).value
        assert got == expected, level


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(2, 6),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
)
def test_full_pipelines_keep_fuzzed_modules_lint_clean(n_blocks, choices):
    """No pipeline may leave error- or warning-grade lint findings.

    Notes (critical edges, rank order, naming) are audits that optimized
    code legitimately trips; errors (undefined uses) and warnings
    (unreachable blocks, dead stores, φ hygiene) on *any* input would be
    a pass bug — DCE, clean and coalesce are expected to sweep them.
    """
    from repro.pipeline import OptLevel
    from repro.pm.registry import get_sequence, resolve_spec
    from repro.verify import lint_function

    func = build_fuzz_function(n_blocks, choices)
    for level in OptLevel:
        transformed = deep_copy_function(func)
        for spec in get_sequence(level.value):
            resolve_spec(spec)(transformed)
        findings = [
            diagnostic
            for diagnostic in lint_function(transformed)
            if diagnostic.severity in ("error", "warning")
        ]
        assert not findings, (level, [f.format() for f in findings])


@settings(max_examples=25, deadline=None)
@given(
    n_blocks=st.integers(2, 5),
    choices=st.lists(st.integers(0, 2 ** 16), min_size=80, max_size=80),
)
def test_pre_never_lengthens_fuzzed_paths(n_blocks, choices):
    """PRE's no-lengthening guarantee, on disciplined names.

    Three preconditions the paper's pipeline provides are required:

    * the section 2.2 naming discipline (GVN renaming), because fresh-home
      reconciliation copies may fail to coalesce;
    * PRE before coalescing, because coalescing merges names and breaks
      the discipline;
    * no dead expressions in the input (DCE first), because deleting a
      "redundant" occurrence whose only provider is dead *resurrects* the
      provider — PRE trades the late computation for the dead early one.

    Under those (standard) conditions the theorem says: on every executed
    path, the number of *expression evaluations* in PRE's direct output
    never exceeds the input's.  That is exactly what is asserted — on
    PRE's own output, counting expression opcodes.  Copies, jumps and the
    behaviour of later passes are outside the theorem: split-edge blocks
    cost a ``jmp`` until code layout folds them, and the φ-webs rebuilt
    by later SSA round-trips can pin a copy coalescing cannot remove
    ("this will not always be possible", section 3.2).
    """
    from repro.ir.opcodes import EXPRESSION_OPCODES

    func = build_fuzz_function(n_blocks, choices)

    def expression_evals(f):
        run = observe(f, args=[5, -3])
        return sum(
            count
            for op, count in run.result.op_counts.items()
            if op in EXPRESSION_OPCODES
        )

    normalized = deep_copy_function(func)
    global_value_numbering(normalized)
    dead_code_elimination(normalized)
    before = expression_evals(normalized)

    partial_redundancy_elimination(normalized)
    after = expression_evals(normalized)
    assert after <= before
