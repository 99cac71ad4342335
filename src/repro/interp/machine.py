"""The ILOC interpreter.

Executes a :class:`~repro.ir.function.Module` and accumulates the dynamic
operation count that Table 1 of the paper reports.  Semantics follow the
FORTRAN expectations of the front end:

* ``idiv`` and ``ftoi`` truncate toward zero; ``mod`` takes the sign of
  the dividend (FORTRAN ``MOD``);
* comparisons produce integer 0/1; ``cbr`` branches on "nonzero";
* ``phi`` nodes execute with parallel-copy semantics based on the
  dynamically preceding block (so SSA-form code can be tested
  differentially) and cost zero dynamic operations — they never survive
  into final code.

The value semantics live in one table, :data:`repro.interp.core.
OPERATIONS`; this module runs the decoded blocks of
:mod:`repro.interp.core` and counts per block visit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.interp.core import (
    INTRINSICS,
    Decoder,
    InterpreterError,
    TrapError,
    count_visits,
    fortran_mod,
    reset_visits,
    trunc_div,
)
from repro.interp.memory import Memory, Value
from repro.ir.function import Function, Module
from repro.ir.opcodes import Opcode

__all__ = [
    "INTRINSICS",
    "ExecutionResult",
    "Interpreter",
    "InterpreterError",
    "TrapError",
    "fortran_mod",
    "run_function",
    "trunc_div",
]


@dataclass
class ExecutionResult:
    """Outcome of one routine invocation."""

    value: Optional[Value]
    dynamic_count: int
    op_counts: Counter = field(default_factory=Counter)
    memory: Optional[Memory] = None

    def count_of(self, opcode: Opcode) -> int:
        return self.op_counts.get(opcode, 0)


#: Opcodes that do not contribute to the dynamic operation count.  PHI and
#: NOP never survive into final optimized code; counting them would skew
#: comparisons between SSA and non-SSA stages.
_FREE_OPS = frozenset({Opcode.PHI, Opcode.NOP})


class Interpreter:
    """Executes routines of a module, counting every executed operation.

    Each routine is decoded (:mod:`repro.interp.core`) on its first call
    and kept for the life of the instance, so a module must not change
    between runs of one instance.  A step is any executed instruction but
    a φ-node.  The step limit is checked on block entry, against the
    steps of the whole block: a run that completes raises if and only if
    its total step count exceeds ``max_steps``.  When a trap and the
    limit fall in the same block, the limit wins.
    """

    def __init__(
        self,
        module: Module,
        max_steps: int = 50_000_000,
        intrinsics: Optional[dict[str, Callable[..., Value]]] = None,
        recorder: Optional[object] = None,
    ) -> None:
        self.module = module
        self.max_steps = max_steps
        self.intrinsics = dict(INTRINSICS)
        if intrinsics:
            self.intrinsics.update(intrinsics)
        #: Optional profile sink with a ``record(function, prev, label)``
        #: method (see :class:`repro.profile.collect.ProfileRecorder`);
        #: called on entry to every basic block executed, ``prev`` being
        #: ``None`` on function entry.
        self.recorder = recorder
        self._steps = 0
        self._code: dict = {}
        self._decoder = Decoder(self.intrinsics)

    def run(
        self,
        name: str,
        args: Sequence[Value] = (),
        memory: Optional[Memory] = None,
    ) -> ExecutionResult:
        """Execute routine ``name`` with ``args``; returns the result.

        The dynamic count covers the routine *and everything it calls*,
        matching the paper's whole-execution measurements.
        """
        self._steps = 0
        reset_visits(self._code.values())
        memory = memory if memory is not None else Memory()
        value = self._call(name, list(args), memory, depth=0)
        op_counts: Counter = Counter()
        count_visits(self._code.values(), op_counts)
        return ExecutionResult(
            value=value,
            dynamic_count=sum(
                count for op, count in op_counts.items() if op not in _FREE_OPS
            ),
            op_counts=op_counts,
            memory=memory,
        )

    # -- internals -----------------------------------------------------------

    def _call(
        self, name: str, args: list[Value], memory: Memory, depth: int
    ) -> Optional[Value]:
        if depth > 200:
            raise InterpreterError(f"call depth exceeded calling {name!r}")
        code = self._code.get(name)
        if code is None:
            if name not in self.module:
                raise InterpreterError(f"call to unknown routine {name!r}")
            code = self._code[name] = self._decoder.decode(self.module[name])
        if len(args) != len(code.params):
            raise InterpreterError(
                f"{name} expects {len(code.params)} args, got {len(args)}"
            )
        regs: dict[str, Value] = dict(zip(code.params, args))
        recorder = self.recorder
        limit = self.max_steps
        block = code.entry
        prev: Optional[str] = None

        while True:
            if recorder is not None:
                recorder.record(name, prev, block.label)
            block.visits += 1
            self._steps += block.steps
            if self._steps > limit:
                raise InterpreterError(f"step limit {limit} exceeded in {name}")
            if block.enter is not None:
                block.enter(prev, regs)
            try:
                for ops, call in block.runs:
                    for op in ops:
                        op(regs, memory)
                    if call is not None:
                        result = self._call(
                            call.callee,
                            [regs[s] for s in call.srcs],
                            memory,
                            depth + 1,
                        )
                        if call.target is not None:
                            if result is None:
                                raise InterpreterError(
                                    f"{call.callee} returned no value but one "
                                    "was expected"
                                )
                            regs[call.target] = result
                term = block.term
                if term is Opcode.CBR:
                    taken, other = block.succ
                    nxt = taken if regs[block.reg] != 0 else other
                elif term is Opcode.JMP:
                    nxt = block.succ[0]
                elif term is Opcode.RET:
                    return regs[block.reg] if block.reg is not None else None
                else:
                    raise InterpreterError(
                        f"{block.where}: fell off the end of a block"
                    )
            except KeyError as exc:
                raise block.undefined(exc, regs) from None
            prev = block.label
            block = nxt


def run_function(
    func: Function,
    args: Sequence[Value] = (),
    memory: Optional[Memory] = None,
    **kwargs,
) -> ExecutionResult:
    """Convenience: run a single function as a one-routine module."""
    return Interpreter(Module([func]), **kwargs).run(func.name, args, memory)
