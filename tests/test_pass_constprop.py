"""Tests for sparse conditional constant propagation."""

from tests.helpers import assert_pass_preserves_behavior, observe

from repro.ir import Opcode, parse_function
from repro.passes import sparse_conditional_constant_propagation as sccp
from repro.passes.fold import fold_operation


def test_folds_straight_line_constants():
    func = parse_function(
        """
        function f() {
        entry:
            r0 <- loadi 2
            r1 <- loadi 3
            r2 <- add r0, r1
            r3 <- mul r2, r2
            ret r3
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{}])
    # every computation became a constant
    assert all(
        inst.opcode in (Opcode.LOADI, Opcode.RET, Opcode.COPY, Opcode.JMP)
        for inst in out.instructions()
    )
    assert observe(out).value == 25


def test_folds_through_copies():
    func = parse_function(
        """
        function f() {
        entry:
            r0 <- loadi 21
            r1 <- copy r0
            r2 <- add r1, r1
            ret r2
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{}])
    assert observe(out).value == 42


def test_decides_branch_and_removes_dead_path():
    func = parse_function(
        """
        function f(r9) {
        entry:
            r0 <- loadi 1
            cbr r0 -> live, dead
        live:
            r1 <- loadi 10
            jmp -> join
        dead:
            r2 <- call sideeffect(r9)
            jmp -> join
        join:
            r3 <- phi [live: r1, dead: r2]
            ret r3
        }
        """
    )
    out = sccp(func)
    labels = {blk.label for blk in out.blocks}
    assert "dead" not in labels
    assert observe(out, args=[0]).value == 10
    assert not any(inst.opcode is Opcode.CALL for inst in out.instructions())


def test_conditional_constant_through_phi():
    # the classic SCCP win: both arms assign the same constant
    func = parse_function(
        """
        function f(rp) {
        entry:
            cbr rp -> a, b
        a:
            r1 <- loadi 7
            jmp -> join
        b:
            r2 <- loadi 7
            jmp -> join
        join:
            r3 <- phi [a: r1, b: r2]
            r4 <- add r3, r3
            ret r4
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{"args": [0]}, {"args": [1]}])
    # r4 = 14 discovered even though the branch is unknown
    ret_block_ops = [inst.opcode for inst in out.instructions()]
    assert Opcode.ADD not in ret_block_ops


def test_does_not_fold_division_by_zero():
    func = parse_function(
        """
        function f(rp) {
        entry:
            r0 <- loadi 1
            r1 <- loadi 0
            cbr rp -> divide, skip
        divide:
            r2 <- idiv r0, r1
            ret r2
        skip:
            ret r0
        }
        """
    )
    out = sccp(func)
    # the trapping division must survive
    assert any(inst.opcode is Opcode.IDIV for inst in out.instructions())
    assert observe(out, args=[0]).value == 1


def test_fold_evaluates_as_execution_does():
    # float operands of idiv fold to the value the code computes at run time
    assert fold_operation(Opcode.IDIV, [7.9, 0.5]) == 15.0
    folded = fold_operation(Opcode.IDIV, [7.5, 2.0])
    assert folded == 3.0 and isinstance(folded, float)
    # a trap refuses to fold
    assert fold_operation(Opcode.IDIV, [1, 0]) is None
    assert fold_operation(Opcode.MOD, [1, 0]) is None
    assert fold_operation(Opcode.FDIV, [1.0, 0.0]) is None


def test_folds_float_integer_division():
    func = parse_function(
        """
        function f() {
        entry:
            r0 <- loadi 7.9
            r1 <- loadi 0.5
            r2 <- idiv r0, r1
            ret r2
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{}])
    assert not any(inst.opcode is Opcode.IDIV for inst in out.instructions())
    assert observe(out).value == 15.0


def test_loop_invariant_constant():
    func = parse_function(
        """
        function f(rn) {
        entry:
            ri <- loadi 0
            rk <- loadi 5
            jmp -> header
        header:
            rc <- cmplt ri, rn
            cbr rc -> body, exit
        body:
            rk2 <- add rk, rk
            r1 <- loadi 1
            ri <- add ri, r1
            jmp -> header
        exit:
            ret rk
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{"args": [3]}, {"args": [0]}])
    # rk2 = 10 folded inside the loop
    assert not any(inst.opcode is Opcode.ADD and "rk" in str(inst.srcs) for inst in out.instructions() if inst.opcode is Opcode.ADD and inst.srcs[0] == inst.srcs[1])


def test_params_are_bottom():
    func = parse_function(
        "function f(r0) {\nentry:\n    r1 <- loadi 1\n    r2 <- add r0, r1\n    ret r2\n}"
    )
    out = assert_pass_preserves_behavior(func, sccp, [{"args": [5]}, {"args": [-1]}])
    assert any(inst.opcode is Opcode.ADD for inst in out.instructions())


def test_folds_intrinsic():
    func = parse_function(
        """
        function f() {
        entry:
            r0 <- loadi 9.0
            r1 <- intrin sqrt(r0)
            ret r1
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{}])
    assert not any(inst.opcode is Opcode.INTRIN for inst in out.instructions())


def test_unknowable_branch_keeps_both_arms():
    func = parse_function(
        """
        function f(rp) {
        entry:
            cbr rp -> a, b
        a:
            r1 <- loadi 1
            ret r1
        b:
            r2 <- loadi 2
            ret r2
        }
        """
    )
    out = assert_pass_preserves_behavior(func, sccp, [{"args": [1]}, {"args": [0]}])
    assert len(out.blocks) == 3
