"""Sparse conditional constant propagation (Wegman & Zadeck [26]).

The first pass of the paper's baseline sequence.  Works on SSA form with
the classic three-level lattice (⊤ / constant / ⊥), propagating only along
executable edges so constants guarded by foldable branches are still found.
Afterwards constant-valued instructions become ``loadi``, decided branches
become jumps, and the function is translated back out of SSA.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.passes.fold import fold_operation
from repro.pm.registry import register_pass
from repro.ssa import destroy_ssa, to_ssa


class _Top:
    def __repr__(self) -> str:  # pragma: no cover - debug only
        return "TOP"


class _Bottom:
    def __repr__(self) -> str:  # pragma: no cover - debug only
        return "BOTTOM"


TOP = _Top()
BOTTOM = _Bottom()
Lattice = Union[_Top, _Bottom, int, float]


def _same_const(a, b) -> bool:
    return type(a) is type(b) and a == b


def _meet(a: Lattice, b: Lattice) -> Lattice:
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    return a if _same_const(a, b) else BOTTOM


class _SCCP:
    def __init__(self, func: Function) -> None:
        self.func = func
        self.value: dict[str, Lattice] = {}
        self.def_of: dict[str, Instruction] = {}
        self.block_of: dict[int, str] = {}
        self.uses: dict[str, list[Instruction]] = {}
        self.executable_edges: set[tuple[Optional[str], str]] = set()
        self.executable_blocks: set[str] = set()
        self.flow_worklist: list[tuple[Optional[str], str]] = []
        self.ssa_worklist: list[str] = []

        for param in func.params:
            self.value[param] = BOTTOM
        for blk in func.blocks:
            for inst in blk.instructions:
                self.block_of[id(inst)] = blk.label
                for target in inst.defs():
                    self.value.setdefault(target, TOP)
                    self.def_of[target] = inst
                for use in inst.uses():
                    self.uses.setdefault(use, []).append(inst)

    # -- lattice updates ------------------------------------------------------

    def _lower(self, reg: str, new: Lattice) -> None:
        """Move ``reg`` down the lattice to meet(old, new); enqueue on change."""
        old = self.value.get(reg, TOP)
        merged = _meet(old, new)
        changed = not (
            (merged is old)
            or (merged is not TOP and merged is not BOTTOM
                and old is not TOP and old is not BOTTOM
                and _same_const(merged, old))
        )
        if changed:
            self.value[reg] = merged
            self.ssa_worklist.append(reg)

    def _operand(self, reg: str) -> Lattice:
        return self.value.get(reg, BOTTOM)

    # -- evaluation ----------------------------------------------------------------

    def _evaluate_phi(self, inst: Instruction, label: str) -> None:
        result: Lattice = TOP
        for src, pred in zip(inst.srcs, inst.phi_labels):
            if (pred, label) in self.executable_edges:
                result = _meet(result, self._operand(src))
        self._lower(inst.target, result)

    def _evaluate(self, inst: Instruction, label: str) -> None:
        op = inst.opcode
        if op is Opcode.PHI:
            self._evaluate_phi(inst, label)
            return
        if op is Opcode.JMP:
            self._mark_edge(label, inst.labels[0])
            return
        if op is Opcode.CBR:
            cond = self._operand(inst.srcs[0])
            if cond is TOP:
                return
            if cond is BOTTOM:
                self._mark_edge(label, inst.labels[0])
                self._mark_edge(label, inst.labels[1])
            else:
                taken = inst.labels[0] if cond != 0 else inst.labels[1]
                self._mark_edge(label, taken)
            return
        if inst.target is None:
            return
        if op is Opcode.LOADI:
            self._lower(inst.target, inst.imm)
            return
        if op is Opcode.COPY:
            self._lower(inst.target, self._operand(inst.srcs[0]))
            return
        if op in (Opcode.CALL, Opcode.LOAD):
            self._lower(inst.target, BOTTOM)
            return
        operands = [self._operand(src) for src in inst.srcs]
        if any(v is BOTTOM for v in operands):
            self._lower(inst.target, BOTTOM)
            return
        if any(v is TOP for v in operands):
            return  # stay optimistic
        folded = fold_operation(op, operands, callee=inst.callee)
        self._lower(inst.target, folded if folded is not None else BOTTOM)

    # -- propagation ------------------------------------------------------------------

    def _mark_edge(self, pred: Optional[str], succ: str) -> None:
        if (pred, succ) in self.executable_edges:
            return
        self.executable_edges.add((pred, succ))
        self.flow_worklist.append((pred, succ))

    def analyze(self) -> None:
        blocks = self.func.block_map()
        self._mark_edge(None, self.func.entry.label)
        while self.flow_worklist or self.ssa_worklist:
            while self.flow_worklist:
                _, label = self.flow_worklist.pop()
                block = blocks[label]
                first_time = label not in self.executable_blocks
                self.executable_blocks.add(label)
                if first_time:
                    for inst in block.instructions:
                        self._evaluate(inst, label)
                else:
                    # a new incoming edge only re-evaluates the φ-nodes
                    for phi in block.phis():
                        self._evaluate_phi(phi, label)
            while self.ssa_worklist:
                reg = self.ssa_worklist.pop()
                for inst in self.uses.get(reg, ()):
                    label = self.block_of[id(inst)]
                    if label in self.executable_blocks:
                        self._evaluate(inst, label)

    # -- rewriting ----------------------------------------------------------------------

    def rewrite(self) -> None:
        func = self.func
        for blk in list(func.blocks):
            if blk.label not in self.executable_blocks:
                continue
            converted: list[Instruction] = []
            survivors: list[Instruction] = []
            for inst in blk.instructions:
                value = self.value.get(inst.target, BOTTOM) if inst.target else BOTTOM
                if (
                    inst.target is not None
                    and inst.is_pure
                    and not (value is TOP or value is BOTTOM)
                ):
                    replacement = Instruction(
                        Opcode.LOADI, target=inst.target, imm=value
                    )
                    if inst.is_phi:
                        converted.append(replacement)
                    else:
                        survivors.append(replacement)
                    continue
                survivors.append(inst)
            # keep φ-nodes a prefix: φ-turned-loadi go right after the φs
            phis = [i for i in survivors if i.is_phi]
            rest = [i for i in survivors if not i.is_phi]
            blk.instructions = phis + converted + rest

            term = blk.terminator
            if term is not None and term.opcode is Opcode.CBR:
                cond = self.value.get(term.srcs[0], BOTTOM)
                if cond is not TOP and cond is not BOTTOM:
                    taken = term.labels[0] if cond != 0 else term.labels[1]
                    dead = term.labels[1] if cond != 0 else term.labels[0]
                    blk.instructions[-1] = Instruction(Opcode.JMP, labels=[taken])
                    func.block(dead).drop_phi_inputs((blk.label,))
        func.remove_unreachable_blocks()


@register_pass("constprop", kind="transform")
def sparse_conditional_constant_propagation(func: Function) -> Function:
    """Run SCCP over ``func`` (in place); returns ``func``.

    The function is converted to pruned SSA, analyzed, rewritten, and
    converted back (φ-nodes become copies).
    """
    to_ssa(func)
    sccp = _SCCP(func)
    sccp.analyze()
    sccp.rewrite()
    destroy_ssa(func)
    return func
