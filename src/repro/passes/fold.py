"""Compile-time evaluation of pure operations.

Shared by constant propagation, peephole optimization and local value
numbering.  Folding evaluates through the interpreter's own table
(:data:`repro.interp.core.OPERATIONS`), so a folded value is exactly the
value the code computes at run time; anything that traps at run time
(zero divisors, sqrt of a negative) refuses to fold so the optimizer
never hides or invents a trap.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.interp.core import INTRINSICS, OPERATIONS, TrapError
from repro.ir.opcodes import Opcode

Const = Union[int, float]


def fold_operation(
    opcode: Opcode,
    operands: Sequence[Const],
    callee: Optional[str] = None,
) -> Optional[Const]:
    """Evaluate a pure operation on constants; ``None`` when not foldable.

    Trapping cases (division by zero, domain errors) return ``None`` —
    the trap must stay in the program.
    """
    fn = INTRINSICS.get(callee) if opcode is Opcode.INTRIN else OPERATIONS.get(opcode)
    if fn is None:
        return None
    try:
        return fn(*operands)
    except (TrapError, ValueError, OverflowError, ZeroDivisionError, TypeError):
        return None
