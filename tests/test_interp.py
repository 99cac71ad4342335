"""Interpreter tests: semantics, counting, traps, calls, memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import (
    Interpreter,
    InterpreterError,
    Memory,
    TrapError,
    fortran_mod,
    run_function,
    trunc_div,
)
from repro.ir import Opcode, parse_function, parse_module


def run_src(src, args=(), **kwargs):
    return run_function(parse_function(src), args, **kwargs)


def test_add_and_return():
    result = run_src(
        "function f(r0, r1) {\nentry:\n    r2 <- add r0, r1\n    ret r2\n}",
        [2, 3],
    )
    assert result.value == 5
    assert result.dynamic_count == 2  # add + ret


def test_branch_counts():
    src = """
    function f(r0) {
    entry:
        cbr r0 -> yes, no
    yes:
        r1 <- loadi 1
        ret r1
    no:
        r2 <- loadi 0
        ret r2
    }
    """
    result = run_src(src, [7])
    assert result.value == 1
    assert result.dynamic_count == 3  # cbr + loadi + ret
    assert run_src(src, [0]).value == 0


def test_loop_dynamic_count_scales():
    src = """
    function f(r0) {
    entry:
        ri <- loadi 0
        r1 <- loadi 1
        jmp -> header
    header:
        rc <- cmplt ri, r0
        cbr rc -> body, exit
    body:
        ri <- add ri, r1
        jmp -> header
    exit:
        ret ri
    }
    """
    small = run_src(src, [5])
    large = run_src(src, [10])
    assert small.value == 5 and large.value == 10
    assert large.dynamic_count - small.dynamic_count == 5 * 4  # 4 ops/iter


@given(st.integers(-100, 100), st.integers(-100, 100).filter(lambda x: x != 0))
def test_trunc_div_matches_c_semantics(a, b):
    import math

    assert trunc_div(a, b) == math.trunc(a / b)


@given(st.integers(-100, 100), st.integers(-100, 100).filter(lambda x: x != 0))
def test_fortran_mod_identity(a, b):
    assert trunc_div(a, b) * b + fortran_mod(a, b) == a
    # MOD takes the sign of the dividend
    if fortran_mod(a, b) != 0:
        assert (fortran_mod(a, b) > 0) == (a > 0)


def test_idiv_truncates_toward_zero():
    src = "function f(r0, r1) {\nentry:\n    r2 <- idiv r0, r1\n    ret r2\n}"
    assert run_src(src, [-7, 2]).value == -3  # not -4 (Python floor)
    assert run_src(src, [7, -2]).value == -3
    assert run_src(src, [7, 2]).value == 3


def test_division_by_zero_traps():
    src = "function f(r0, r1) {\nentry:\n    r2 <- idiv r0, r1\n    ret r2\n}"
    with pytest.raises(TrapError):
        run_src(src, [1, 0])


def test_ftoi_truncates():
    src = "function f(r0) {\nentry:\n    r1 <- ftoi r0\n    ret r1\n}"
    assert run_src(src, [2.9]).value == 2
    assert run_src(src, [-2.9]).value == -2


def test_not_is_logical():
    src = "function f(r0) {\nentry:\n    r1 <- not r0\n    ret r1\n}"
    assert run_src(src, [0]).value == 1
    assert run_src(src, [5]).value == 0


def test_comparisons_produce_01():
    src = "function f(r0, r1) {\nentry:\n    r2 <- cmple r0, r1\n    ret r2\n}"
    assert run_src(src, [1, 2]).value == 1
    assert run_src(src, [3, 2]).value == 0


def test_min_max_abs_neg():
    src = """
    function f(r0, r1) {
    entry:
        r2 <- min r0, r1
        r3 <- max r0, r1
        r4 <- abs r2
        r5 <- neg r3
        r6 <- add r4, r5
        ret r6
    }
    """
    assert run_src(src, [-4, 7]).value == 4 - 7


def test_intrinsic_sqrt():
    src = "function f(r0) {\nentry:\n    r1 <- intrin sqrt(r0)\n    ret r1\n}"
    assert run_src(src, [9.0]).value == 3.0


def test_intrinsic_sqrt_negative_traps():
    src = "function f(r0) {\nentry:\n    r1 <- intrin sqrt(r0)\n    ret r1\n}"
    with pytest.raises(TrapError):
        run_src(src, [-1.0])


def test_intrinsic_sign():
    src = "function f(r0, r1) {\nentry:\n    r2 <- intrin sign(r0, r1)\n    ret r2\n}"
    assert run_src(src, [3.0, -1.0]).value == -3.0
    assert run_src(src, [-3.0, 1.0]).value == 3.0


def test_unknown_intrinsic_raises():
    src = "function f(r0) {\nentry:\n    r1 <- intrin wat(r0)\n    ret r1\n}"
    with pytest.raises(InterpreterError, match="unknown intrinsic"):
        run_src(src, [1])


def test_memory_load_store():
    func = parse_function(
        """
        function f(r0, r1) {
        entry:
            store r1, r0
            r2 <- load r0
            ret r2
        }
        """
    )
    mem = Memory()
    base = mem.allocate(8)
    result = run_function(func, [base, 42], memory=mem)
    assert result.value == 42
    assert mem.read(base) == 42


def test_load_unwritten_address_traps():
    func = parse_function(
        "function f(r0) {\nentry:\n    r1 <- load r0\n    ret r1\n}"
    )
    mem = Memory()
    base = mem.allocate(8)
    with pytest.raises(Exception):
        run_function(func, [base + 4], memory=mem)  # misaligned


def test_array_alloc_and_readback():
    mem = Memory()
    base = mem.allocate_array([1.5, 2.5, 3.5], elemsize=8)
    assert mem.read_array(base, 3, 8) == [1.5, 2.5, 3.5]


def test_call_between_routines():
    module = parse_module(
        """
        function main(r0) {
        entry:
            r1 <- call double(r0)
            r2 <- call double(r1)
            ret r2
        }

        function double(r0) {
        entry:
            r1 <- loadi 2
            r2 <- mul r0, r1
            ret r2
        }
        """
    )
    result = Interpreter(module).run("main", [5])
    assert result.value == 20
    # counts include callee operations
    assert result.op_counts[Opcode.MUL] == 2


def test_recursion():
    module = parse_module(
        """
        function fact(r0) {
        entry:
            r1 <- loadi 1
            r2 <- cmple r0, r1
            cbr r2 -> base, rec
        base:
            ret r1
        rec:
            r3 <- sub r0, r1
            r4 <- call fact(r3)
            r5 <- mul r0, r4
            ret r5
        }
        """
    )
    assert Interpreter(module).run("fact", [6]).value == 720


def test_call_unknown_routine():
    module = parse_module(
        "function f() {\nentry:\n    call nope()\n    ret\n}"
    )
    with pytest.raises(InterpreterError, match="unknown routine"):
        Interpreter(module).run("f")


def test_wrong_arity():
    module = parse_module("function f(r0) {\nentry:\n    ret r0\n}")
    with pytest.raises(InterpreterError, match="expects"):
        Interpreter(module).run("f", [])


def test_step_limit():
    src = "function f() {\nentry:\n    jmp -> entry2\nentry2:\n    jmp -> entry2\n}"
    with pytest.raises(InterpreterError, match="step limit"):
        run_src(src, [], max_steps=100)


def test_undefined_register_read():
    src = "function f() {\nentry:\n    r1 <- copy r0\n    ret r1\n}"
    with pytest.raises(InterpreterError, match="undefined register"):
        run_src(src)


def test_phi_execution_parallel_semantics():
    # swap via phis: both must read pre-edge values
    src = """
    function f(r0) {
    entry:
        ra <- loadi 1
        rb <- loadi 2
        ri <- loadi 0
        r1 <- loadi 1
        jmp -> header
    header:
        ra2 <- phi [entry: ra, body: rb2]
        rb2 <- phi [entry: rb, body: ra2]
        rc <- cmplt ri, r0
        cbr rc -> body, exit
    body:
        ri <- add ri, r1
        jmp -> header
    exit:
        ret ra2
    }
    """
    # after one swap iteration ra2 = 2, after two ra2 = 1
    assert run_src(src, [1]).value == 2
    assert run_src(src, [2]).value == 1


def test_phi_costs_nothing():
    src_with_phi = """
    function f(r0) {
    entry:
        nop
        jmp -> next
    next:
        r1 <- phi [entry: r0]
        ret r1
    }
    """
    result = run_src(src_with_phi, [5])
    assert result.value == 5
    assert result.dynamic_count == 2  # jmp + ret; the phi and nop are free
    assert result.op_counts[Opcode.PHI] == 1
    assert result.op_counts[Opcode.NOP] == 1


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(-1000, 1000),
    b=st.integers(-1000, 1000),
    c=st.integers(1, 100),
)
def test_arith_matches_python(a, b, c):
    src = """
    function f(ra, rb, rc) {
    entry:
        r1 <- add ra, rb
        r2 <- mul r1, rc
        r3 <- sub r2, ra
        r4 <- idiv r3, rc
        r5 <- mod r3, rc
        r6 <- add r4, r5
        ret r6
    }
    """
    import math

    expected = math.trunc(((a + b) * c - a) / c) + fortran_mod((a + b) * c - a, c)
    assert run_src(src, [a, b, c]).value == expected


# -- semantics the execution core must keep -----------------------------------


def test_instructions_after_the_first_terminator_neither_run_nor_count():
    src = """
    function f() {
    entry:
        r0 <- loadi 1
        ret r0
        r1 <- idiv r0, rz
        ret r1
    }
    """
    result = run_src(src)
    assert result.value == 1
    assert result.dynamic_count == 2
    assert Opcode.IDIV not in result.op_counts
    assert result.op_counts[Opcode.RET] == 1


def test_phi_without_an_input_for_the_edge_taken_raises():
    src = """
    function f(r0) {
    entry:
        jmp -> next
    next:
        r1 <- phi [elsewhere: r0]
        ret r1
    }
    """
    with pytest.raises(
        InterpreterError, match="f/next: phi has no input for edge from entry"
    ):
        run_src(src, [1])


_COUNTED_LOOP = """
function main(r0) {
entry:
    r1 <- call loop(r0)
    ret r1
}

function loop(r0) {
entry:
    ri <- loadi 0
    r1 <- loadi 1
    jmp -> header
header:
    rc <- cmplt ri, r0
    cbr rc -> body, exit
body:
    ri <- add ri, r1
    jmp -> header
exit:
    ret ri
}
"""


def test_a_run_of_exactly_max_steps_succeeds():
    module = parse_module(_COUNTED_LOOP)
    total = Interpreter(module).run("main", [5]).dynamic_count
    assert total == 2 + 3 + 6 * 2 + 5 * 2 + 1
    assert Interpreter(module, max_steps=total).run("main", [5]).value == 5
    with pytest.raises(InterpreterError, match="step limit"):
        Interpreter(module, max_steps=total - 1).run("main", [5])
    # the callee's steps count against the same limit
    with pytest.raises(InterpreterError, match="step limit 10 exceeded in loop"):
        Interpreter(module, max_steps=10).run("main", [5])


class _EventStream:
    def __init__(self):
        self.events = []

    def record(self, function, prev, label):
        self.events.append((function, prev, label))


def test_recorder_sees_every_block_entry_in_order():
    module = parse_module(
        """
        function main(r0) {
        entry:
            ri <- loadi 0
            r1 <- loadi 1
            jmp -> header
        header:
            rc <- cmplt ri, r0
            cbr rc -> body, exit
        body:
            rv <- call sign(ri)
            ri <- add ri, r1
            jmp -> header
        exit:
            ret ri
        }

        function sign(r0) {
        entry:
            cbr r0 -> pos, zero
        pos:
            r1 <- loadi 1
            ret r1
        zero:
            r2 <- loadi 0
            ret r2
        }
        """
    )
    stream = _EventStream()
    assert Interpreter(module, recorder=stream).run("main", [2]).value == 2
    assert stream.events == [
        ("main", None, "entry"),
        ("main", "entry", "header"),
        ("main", "header", "body"),
        ("sign", None, "entry"),
        ("sign", "entry", "zero"),
        ("main", "body", "header"),
        ("main", "header", "body"),
        ("sign", None, "entry"),
        ("sign", "entry", "pos"),
        ("main", "body", "header"),
        ("main", "header", "exit"),
    ]


def test_running_one_instance_twice_gives_identical_results():
    module = parse_module(_COUNTED_LOOP)
    interp = Interpreter(module)
    first = interp.run("main", [4])
    second = interp.run("main", [4])
    assert (first.value, first.dynamic_count) == (second.value, second.dynamic_count)
    assert first.op_counts == second.op_counts
    assert interp.run("main", [2]).dynamic_count < first.dynamic_count


def test_branch_to_a_missing_block_raises_only_when_taken():
    src = """
    function f(r0) {
    entry:
        cbr r0 -> nowhere, out
    out:
        ret r0
    }
    """
    assert run_src(src, [0]).value == 0
    with pytest.raises(InterpreterError, match="branch to unknown block 'nowhere'"):
        run_src(src, [1])
