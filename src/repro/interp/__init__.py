"""ILOC interpreter with dynamic operation counting.

The paper instruments generated C "to accumulate dynamic counts of ILOC
operations" (section 4); this interpreter measures exactly that quantity by
executing the ILOC directly.  Branches count, as in the paper ("the dynamic
operation count, including branches").

:mod:`repro.interp.core` holds the one table of opcode semantics and the
decoder that turns a function into per-block closures; the interpreter,
the cycle simulator and constant folding all run it.
"""

from repro.interp.machine import (
    INTRINSICS,
    ExecutionResult,
    Interpreter,
    InterpreterError,
    TrapError,
    fortran_mod,
    run_function,
    trunc_div,
)
from repro.interp.memory import Memory

__all__ = [
    "INTRINSICS",
    "ExecutionResult",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "TrapError",
    "fortran_mod",
    "run_function",
    "trunc_div",
]
