"""The decoded execution core shared by the interpreter and the simulator.

Each opcode's value semantics is written once, in :data:`OPERATIONS`, as
a scalar function of its operands.  The interpreter
(:mod:`repro.interp.machine`), the cycle simulator
(:mod:`repro.backend.sim`) and constant folding (:mod:`repro.passes.fold`)
all evaluate through that table, so they cannot disagree.

A :class:`Decoder` turns an IR function into :class:`Code` once per
machine instance.  Each basic block becomes one :class:`Block`:

* its leading φ-nodes, one parallel copy per incoming edge (the edge's
  moves are resolved on its first traversal);
* its straight-line body, tuples of closures ``op(regs, memory)`` built
  from the table, split at each ``call`` (the machine runs the call
  itself, because only it knows the call depth and the clock);
* its first terminator, with the successor blocks already resolved.
  Instructions after it neither run nor count;
* its static counts: ``steps`` (every instruction past the φ prefix up
  to the terminator) and the opcode ``histogram`` (φ-nodes included).

The machines own the dispatch loop.  They count per block visit instead
of per instruction: op counts are visits × the block's histogram, and
step or instruction limits are checked on block entry.  The simulator
also adds up each block's operand stalls in ``stalls``.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

from repro.interp.memory import Value
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


class InterpreterError(RuntimeError):
    """Raised on malformed code or resource exhaustion."""


class TrapError(InterpreterError):
    """Raised on a run-time trap (zero divisor, bad address)."""


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (FORTRAN semantics)."""
    if b == 0:
        raise TrapError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def fortran_mod(a: int, b: int) -> int:
    """FORTRAN MOD: remainder with the sign of the dividend."""
    return a - trunc_div(a, b) * b


def float_div(a: float, b: float) -> float:
    """Floating-point division; a zero divisor traps."""
    if b == 0:
        raise TrapError("floating-point division by zero")
    return a / b


def _sign_transfer(a: float, b: float) -> float:
    """FORTRAN SIGN(a, b): |a| with the sign of b."""
    magnitude = abs(a)
    return magnitude if b >= 0 else -magnitude


#: Pure intrinsics callable through ``intrin``.
INTRINSICS: dict[str, Callable[..., Value]] = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "atan2": math.atan2,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "pow": math.pow,
    "sign": _sign_transfer,
    "isign": lambda a, b: int(_sign_transfer(a, b)),
}

#: The value semantics of every computing opcode, as a function of its
#: operand values.  Comparisons and ``not`` produce integer 0/1; ``idiv``
#: and ``ftoi`` truncate toward zero; ``mod`` takes the sign of the
#: dividend (FORTRAN ``MOD``).
OPERATIONS: dict[Opcode, Callable[..., Value]] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.IDIV: trunc_div,
    Opcode.FDIV: float_div,
    Opcode.MOD: fortran_mod,
    Opcode.NEG: operator.neg,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.ABS: abs,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.NOT: lambda a: int(a == 0),
    Opcode.SHL: operator.lshift,
    Opcode.SHR: operator.rshift,
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.ITOF: float,
    Opcode.FTOI: math.trunc,
}


class Block:
    """One decoded basic block (see the module docstring)."""

    __slots__ = (
        "label",
        "where",
        "error",
        "enter",
        "runs",
        "term",
        "reg",
        "succ",
        "layout_next",
        "insts",
        "steps",
        "histogram",
        "visits",
        "stalls",
    )

    def __init__(self, func_name: str, label: str, error: type) -> None:
        self.label = label
        #: ``function/label``, the prefix of every error raised here
        self.where = f"{func_name}/{label}"
        self.error = error
        #: ``enter(prev_label, regs)`` runs the φ parallel copy, or None
        self.enter: Optional[Callable] = None
        #: ``((item, ...), call instruction or None), ...``
        self.runs: tuple = ()
        #: JMP, CBR or RET; None when the block has no terminator
        self.term: Optional[Opcode] = None
        #: the CBR condition or RET value register
        self.reg: Optional[str] = None
        #: successor blocks, taken first for CBR
        self.succ: tuple = ()
        #: the next block in layout order (a transfer elsewhere is taken)
        self.layout_next: Optional[Block] = None
        #: every executed instruction past the φ prefix, terminator last
        self.insts: tuple = ()
        self.steps = 0
        self.histogram: tuple = ()
        self.visits = 0
        #: cycles spent waiting on operands here (the simulator's count)
        self.stalls = 0

    def undefined(self, exc: KeyError, regs: dict) -> Exception:
        """The error for a register read that raised ``exc`` in this block.

        Registers are never undefined again once written, so the failing
        instruction is the first one that reads the missing register while
        it is still missing.
        """
        reg = exc.args[0]
        if reg not in regs:
            for inst in self.insts:
                if reg in inst.srcs:
                    return self.error(
                        f"{self.where}: read of undefined register {exc} in {inst}"
                    )
        return exc


class Code:
    """One decoded function: its parameters, its blocks and its entry."""

    __slots__ = ("name", "params", "blocks", "entry")

    def __init__(self, name: str, params: list, blocks: list, entry: Block) -> None:
        self.name = name
        self.params = params
        self.blocks = blocks
        self.entry = entry


class Decoder:
    """Decodes IR functions into :class:`Code` for one machine instance.

    ``error`` is the class of every error the decoded code raises on
    malformed input; :meth:`operation` and :meth:`pack` are what a
    machine may specialize (the simulator adds frame slots and timing).
    """

    error: type = InterpreterError

    def __init__(self, intrinsics: dict[str, Callable[..., Value]]) -> None:
        self.intrinsics = intrinsics

    def decode(self, func: Function) -> Code:
        error = self.error
        blocks = [Block(func.name, blk.label, error) for blk in func.blocks]
        by_label = {block.label: block for block in blocks}
        for index, (blk, block) in enumerate(zip(func.blocks, blocks)):
            if index + 1 < len(blocks):
                block.layout_next = blocks[index + 1]
            self._decode_block(func.name, blk.instructions, block, by_label)
        return Code(func.name, func.params, blocks, by_label[blocks[0].label])

    def operation(self, inst: Instruction, where: str) -> Optional[Callable]:
        """The closure ``op(regs, memory)`` for one body instruction.

        ``None`` means the instruction does nothing (``nop``).
        """
        op = inst.opcode
        target, srcs = inst.target, inst.srcs
        fn = OPERATIONS.get(op)
        if fn is not None:
            if len(srcs) == 1:
                return _unary(fn, target, srcs[0])
            return _binary(fn, target, srcs[0], srcs[1])
        if op is Opcode.LOADI:
            return _constant(target, inst.imm)
        if op is Opcode.COPY:
            return _copy(target, srcs[0])
        if op is Opcode.LOAD:
            return _load(target, srcs[0])
        if op is Opcode.STORE:
            return _store(srcs[0], srcs[1])
        if op is Opcode.INTRIN:
            fn = self.intrinsics.get(inst.callee)
            if fn is None:
                return _fail(self.error, f"unknown intrinsic {inst.callee!r}")
            return _intrinsic(fn, inst.callee, target, tuple(srcs))
        if op is Opcode.NOP:
            return None
        return _fail(self.error, f"{where}: cannot execute {inst}")

    def pack(self, op: Callable, inst: Instruction):
        """What a block's runs hold for one instruction: here, the closure."""
        return op

    # -- internals ---------------------------------------------------------

    def _decode_block(
        self,
        func_name: str,
        instructions: list[Instruction],
        block: Block,
        by_label: dict[str, Block],
    ) -> None:
        where = block.where
        phis = []
        index = 0
        while index < len(instructions) and instructions[index].is_phi:
            phis.append(instructions[index])
            index += 1
        if phis:
            block.enter = _parallel_copy(phis, where, self.error)

        insts: list[Instruction] = []
        runs: list[tuple] = []
        items: list = []
        for inst in instructions[index:]:
            insts.append(inst)
            op = inst.opcode
            if inst.is_terminator:
                block.term = op
                block.reg = inst.srcs[0] if inst.srcs else None
                if op is not Opcode.RET:
                    block.succ = tuple(
                        by_label.get(label)
                        or self._missing(func_name, label, inst, block)
                        for label in inst.labels
                    )
                break
            if op is Opcode.CALL:
                runs.append((tuple(items), inst))
                items = []
                continue
            try:
                closure = self.operation(inst, where)
            except IndexError as exc:  # too few operands: fail only if run
                closure = _fail(IndexError, *exc.args)
            if closure is not None:
                items.append(self.pack(closure, inst))
        if items or not runs:
            runs.append((tuple(items), None))
        block.runs = tuple(runs)
        block.insts = tuple(insts)
        block.steps = len(insts)
        histogram: dict[Opcode, int] = {}
        for inst in phis + insts:
            histogram[inst.opcode] = histogram.get(inst.opcode, 0) + 1
        block.histogram = tuple(histogram.items())

    def _missing(
        self, func_name: str, label: str, inst: Instruction, block: Block
    ) -> Block:
        """A stand-in successor for a branch to a label the function lacks:
        entering it raises."""
        stub = Block(func_name, label, self.error)
        fail = _fail(self.error, f"{block.where}: branch to unknown block {label!r}")
        stub.runs = (((self.pack(fail, inst),), None),)
        return stub


def count_visits(code_objects, counts) -> None:
    """Add visits × histogram of every visited block into ``counts``."""
    for code in code_objects:
        for block in code.blocks:
            visits = block.visits
            if visits:
                for opcode, n in block.histogram:
                    counts[opcode] += visits * n


def reset_visits(code_objects) -> None:
    """Zero the visit and stall counters before a run."""
    for code in code_objects:
        for block in code.blocks:
            block.visits = 0
            block.stalls = 0


# -- closure builders -------------------------------------------------------


def _binary(fn, target, a, b):
    def op(regs, memory):
        regs[target] = fn(regs[a], regs[b])

    return op


def _unary(fn, target, a):
    def op(regs, memory):
        regs[target] = fn(regs[a])

    return op


def _constant(target, value):
    def op(regs, memory):
        regs[target] = value

    return op


def _copy(target, src):
    def op(regs, memory):
        regs[target] = regs[src]

    return op


def _load(target, src):
    def op(regs, memory):
        addr = regs[src]
        if not isinstance(addr, int):
            raise TrapError(f"load from non-integer address {addr!r}")
        regs[target] = memory.read(addr)

    return op


def _store(value, address):
    def op(regs, memory):
        addr = regs[address]
        if not isinstance(addr, int):
            raise TrapError(f"store to non-integer address {addr!r}")
        memory.write(addr, regs[value])

    return op


def _intrinsic(fn, name, target, srcs):
    def op(regs, memory):
        args = [regs[s] for s in srcs]
        try:
            regs[target] = fn(*args)
        except ValueError as exc:  # e.g. sqrt of a negative
            raise TrapError(f"intrinsic {name}: {exc}") from None

    return op


def _fail(error: type, *args):
    """A closure that raises ``error(*args)`` when (and only when) it runs."""

    def op(regs, memory):
        raise error(*args)

    return op


def _parallel_copy(phis: list[Instruction], where: str, error: type):
    """``enter(prev, regs)``: every φ reads its input on edge ``prev``,
    then all targets are written at once."""
    edges: dict = {}

    def moves_for(prev):
        moves = []
        for phi in phis:
            try:
                position = phi.phi_labels.index(prev)
            except ValueError:
                raise error(f"{where}: phi has no input for edge from {prev}") from None
            moves.append((phi.target, phi.srcs[position], phi))
        return tuple(moves)

    def enter(prev, regs):
        moves = edges.get(prev)
        if moves is None:
            moves = edges[prev] = moves_for(prev)
        values = []
        for target, src, phi in moves:
            try:
                values.append(regs[src])
            except KeyError as exc:
                raise error(
                    f"{where}: read of undefined register {exc} in {phi}"
                ) from None
        for (target, _, _), value in zip(moves, values):
            regs[target] = value

    return enter
