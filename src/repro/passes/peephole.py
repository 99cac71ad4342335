"""Global peephole optimization.

Part of the paper's baseline sequence.  Scans each block with local
knowledge of constants, copies and negations, and

* folds pure operations on constants,
* applies type-safe algebraic identities (``x + 0``, ``x * 1``, ...),
* propagates copies locally,
* **reconstructs subtraction**: reassociation rewrites ``x − y`` as
  ``x + (−y)`` (section 3.1); this pass turns surviving ``add x, (neg y)``
  back into ``sub x, y`` — "we rely on a later pass, a form of global
  peephole optimization, to reconstruct the original operations when
  profitable",
* folds decided conditional branches.

``convert_mul_to_shift`` implements the multiply-by-constant → shift
rewrite discussed in section 5.2; it is **off** by default because doing
it before reassociation destroys reassociation opportunities (shifts are
not associative) — the paper measured that mistake "more than once".
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.passes.fold import fold_operation
from repro.pm.registry import register_pass

Const = Union[int, float]


def _is_int_const(value: Optional[Const], expected: int) -> bool:
    return type(value) is int and value == expected


def _power_of_two(value: Const) -> Optional[int]:
    if type(value) is int and value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class _BlockState:
    """Facts valid at the current point of a block scan."""

    def __init__(self) -> None:
        self.const: dict[str, Const] = {}
        self.copy_of: dict[str, str] = {}
        self.neg_of: dict[str, str] = {}

    def kill(self, reg: str) -> None:
        self.const.pop(reg, None)
        self.copy_of.pop(reg, None)
        self.neg_of.pop(reg, None)
        for table in (self.copy_of, self.neg_of):
            stale = [k for k, v in table.items() if v == reg]
            for k in stale:
                del table[k]

    def resolve(self, reg: str) -> str:
        """Follow local copy chains."""
        seen = set()
        while reg in self.copy_of and reg not in seen:
            seen.add(reg)
            reg = self.copy_of[reg]
        return reg


@register_pass("peephole", kind="transform", options={"convert_mul_to_shift": False})
def peephole(func: Function, convert_mul_to_shift: bool = False) -> Function:
    """Run peephole simplification over every block (in place)."""
    folded_branch = False
    for blk in func.blocks:
        state = _BlockState()
        new_instructions: list[Instruction] = []
        for inst in blk.instructions:
            if inst.is_phi:
                state.kill(inst.target)
                new_instructions.append(inst)
                continue
            # local copy propagation on the uses
            inst.srcs = [state.resolve(src) for src in inst.srcs]
            replacement = _simplify(inst, state)
            if replacement is not None:
                inst = replacement
            elif convert_mul_to_shift and inst.opcode is Opcode.MUL:
                # the section 5.2 mistake, available for the ablation:
                # premature multiply -> shift conversion
                rewritten = _mul_to_shift(inst, state, func, new_instructions)
                if rewritten is not None:
                    inst = rewritten
            new_instructions.append(inst)
            # update facts
            if inst.target is not None:
                state.kill(inst.target)
                if inst.opcode is Opcode.LOADI:
                    state.const[inst.target] = inst.imm
                elif inst.opcode is Opcode.COPY and inst.srcs[0] != inst.target:
                    state.copy_of[inst.target] = inst.srcs[0]
                    if inst.srcs[0] in state.const:
                        state.const[inst.target] = state.const[inst.srcs[0]]
                elif inst.opcode is Opcode.NEG and inst.srcs[0] != inst.target:
                    state.neg_of[inst.target] = inst.srcs[0]
        blk.instructions = new_instructions
        term = blk.terminator
        if term is not None and term.opcode is Opcode.CBR:
            cond = state.const.get(term.srcs[0])
            if cond is not None:
                taken = term.labels[0] if cond != 0 else term.labels[1]
                dead = term.labels[1] if cond != 0 else term.labels[0]
                blk.instructions[-1] = Instruction(Opcode.JMP, labels=[taken])
                func.block(dead).drop_phi_inputs((blk.label,))
                folded_branch = True
    if folded_branch:
        func.remove_unreachable_blocks()
    return func


def _mul_to_shift(
    inst: Instruction,
    state: _BlockState,
    func: Function,
    out: list[Instruction],
) -> Optional[Instruction]:
    """Rewrite ``t <- mul x, 2^k`` as ``t <- shl x, k`` (section 5.2 ablation)."""
    a, b = inst.srcs
    for x, c in ((a, state.const.get(b)), (b, state.const.get(a))):
        if c is None:
            continue
        shift = _power_of_two(c)
        if shift is not None and shift > 0:
            amount = func.new_reg()
            out.append(Instruction(Opcode.LOADI, target=amount, imm=shift))
            return Instruction(Opcode.SHL, target=inst.target, srcs=[x, amount])
    return None


def _simplify(inst: Instruction, state: _BlockState) -> Optional[Instruction]:
    """Return a simpler replacement for ``inst``, or ``None``.

    Identities are applied only when type-safe without knowing operand
    types: ``x + 0`` folds only for the *integer* constant 0 (adding
    ``0.0`` to an integer would change its type), and so on.
    """
    op = inst.opcode
    if inst.target is None or not inst.is_pure:
        return None

    def const(reg: str) -> Optional[Const]:
        return state.const.get(reg)

    def copy(src: str) -> Instruction:
        return Instruction(Opcode.COPY, target=inst.target, srcs=[src])

    def loadi(value: Const) -> Instruction:
        return Instruction(Opcode.LOADI, target=inst.target, imm=value)

    # full constant folding
    if inst.srcs and all(const(s) is not None for s in inst.srcs):
        folded = fold_operation(op, [const(s) for s in inst.srcs], callee=inst.callee)
        if folded is not None:
            return loadi(folded)

    if len(inst.srcs) == 2:
        a, b = inst.srcs
        ca, cb = const(a), const(b)
        if op is Opcode.ADD:
            if _is_int_const(cb, 0):
                return copy(a)
            if _is_int_const(ca, 0):
                return copy(b)
            # reconstruct subtraction from add-of-negation (section 3.1)
            if b in state.neg_of:
                return Instruction(Opcode.SUB, target=inst.target, srcs=[a, state.neg_of[b]])
            if a in state.neg_of:
                return Instruction(Opcode.SUB, target=inst.target, srcs=[b, state.neg_of[a]])
        elif op is Opcode.SUB:
            if _is_int_const(cb, 0):
                return copy(a)
            if b in state.neg_of:  # x - (-y) = x + y
                return Instruction(Opcode.ADD, target=inst.target, srcs=[a, state.neg_of[b]])
        elif op is Opcode.MUL:
            if _is_int_const(cb, 1):
                return copy(a)
            if _is_int_const(ca, 1):
                return copy(b)
        elif op is Opcode.IDIV:
            if _is_int_const(cb, 1):
                return copy(a)
        elif op in (Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR):
            if a == b:
                return copy(a)
        elif op in (Opcode.SHL, Opcode.SHR):
            if _is_int_const(cb, 0):
                return copy(a)
    elif len(inst.srcs) == 1:
        src = inst.srcs[0]
        if op is Opcode.NEG and src in state.neg_of:
            return copy(state.neg_of[src])  # −(−x) = x
        if op is Opcode.COPY and src in state.const:
            return loadi(state.const[src])
    return None
