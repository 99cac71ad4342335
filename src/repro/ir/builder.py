"""Convenience builder for constructing IR programmatically."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Immediate, Instruction
from repro.ir.opcodes import Opcode


class IRBuilder:
    """Builds instructions into the current block of a function.

    Example:
        >>> from repro.ir import IRBuilder
        >>> b = IRBuilder("double", params=["r0"])
        >>> b.label("entry")
        >>> two = b.loadi(2)
        >>> result = b.emit(Opcode.MUL, b.func.params[0], two)
        >>> b.ret(result)
        >>> func = b.finish()
    """

    def __init__(self, name: str, params: Optional[Sequence[str]] = None) -> None:
        self.func = Function(name, params=list(params or []))
        self._block: Optional[BasicBlock] = None
        # keep fresh registers clear of explicit ones like "r0"
        self.func.sync_counters()
        for param in self.func.params:
            self._note_reg(param)

    def _note_reg(self, name: str) -> None:
        if name.startswith("r") and name[1:].isdigit():
            self.func.sync_counters()

    # -- structure -----------------------------------------------------------

    def label(self, name: Optional[str] = None) -> str:
        """Start a new basic block and make it current; returns its label."""
        name = name if name is not None else self.func.new_label()
        self._block = self.func.add_block(name)
        return name

    def append(self, inst: Instruction) -> Instruction:
        if self._block is None:
            raise RuntimeError("no current block; call label() first")
        self._block.instructions.append(inst)
        return inst

    # -- instructions ---------------------------------------------------------

    def emit(self, opcode: Opcode, *srcs: str, target: Optional[str] = None) -> str:
        """Emit a value-producing operation; returns the target register."""
        target = target if target is not None else self.func.new_reg()
        self.append(Instruction(opcode, target=target, srcs=list(srcs)))
        return target

    def loadi(self, value: Immediate, target: Optional[str] = None) -> str:
        target = target if target is not None else self.func.new_reg()
        self.append(Instruction(Opcode.LOADI, target=target, imm=value))
        return target

    def copy(self, src: str, target: Optional[str] = None) -> str:
        target = target if target is not None else self.func.new_reg()
        self.append(Instruction(Opcode.COPY, target=target, srcs=[src]))
        return target

    def load(self, addr: str, target: Optional[str] = None) -> str:
        target = target if target is not None else self.func.new_reg()
        self.append(Instruction(Opcode.LOAD, target=target, srcs=[addr]))
        return target

    def store(self, value: str, addr: str) -> None:
        self.append(Instruction(Opcode.STORE, srcs=[value, addr]))

    def call(
        self, callee: str, args: Sequence[str], target: Optional[str] = None
    ) -> Optional[str]:
        self.append(Instruction(Opcode.CALL, target=target, srcs=list(args), callee=callee))
        return target

    def intrin(self, callee: str, *args: str, target: Optional[str] = None) -> str:
        target = target if target is not None else self.func.new_reg()
        self.append(
            Instruction(Opcode.INTRIN, target=target, srcs=list(args), callee=callee)
        )
        return target

    def phi(
        self, pairs: Sequence[tuple[str, str]], target: Optional[str] = None
    ) -> str:
        """Emit a PHI; ``pairs`` is a sequence of (pred_label, src_reg)."""
        target = target if target is not None else self.func.new_reg()
        self.append(
            Instruction(
                Opcode.PHI,
                target=target,
                srcs=[src for _, src in pairs],
                phi_labels=[lbl for lbl, _ in pairs],
            )
        )
        return target

    # -- terminators --------------------------------------------------------------

    def jmp(self, label: str) -> None:
        self.append(Instruction(Opcode.JMP, labels=[label]))

    def cbr(self, cond: str, if_true: str, if_false: str) -> None:
        self.append(Instruction(Opcode.CBR, srcs=[cond], labels=[if_true, if_false]))

    def ret(self, value: Optional[str] = None) -> None:
        srcs = [value] if value is not None else []
        self.append(Instruction(Opcode.RET, srcs=srcs))

    # -- completion -----------------------------------------------------------------

    def finish(self, validate: bool = True) -> Function:
        """Return the built function, optionally validating it."""
        self.func.sync_counters()
        if validate:
            from repro.ir.validate import validate_function

            validate_function(self.func)
        return self.func
