#!/usr/bin/env python3
"""Multi-dimensional array addressing — the paper's motivating case.

Section 2.1: "if rv and rz are both loop invariant, only the rightmost
shape will allow PRE to hoist the loop-invariant subexpression.  This
case is quite important, since it arises routinely in multi-dimensional
array addressing computations."

A column-major access ``a(i, j)`` inside an ``i`` loop computes::

    base + ((i-1) + (j-1)*dim1) * 8

The front end associates this left-to-right, burying the loop-invariant
``(j-1)*dim1*8`` inside the varying sum.  Reassociation re-sorts by rank
and distribution splits the multiply, exposing the invariant part for
PRE to hoist out of the inner loop.

Run::

    python examples/array_addressing.py
"""

from repro.ir import Opcode
from repro.pipeline import OptLevel, compile_source, run_routine

SOURCE = """
routine colsum(n: int, a: real[32, 32], out: real[32])
  integer i, j
  real s
  do j = 1, n
    s = 0.0
    do i = 1, n
      s = s + a(i, j)
    end
    out(j) = s
  end
end
"""


def count_loop_ops(module):
    """Static multiplies/adds inside the innermost loop block."""
    func = module["colsum"]
    inner = None
    for blk in func.blocks:
        term = blk.terminator
        if term is not None and term.opcode is Opcode.CBR and blk.label in term.labels:
            if inner is None or len(blk.instructions) < len(inner.instructions):
                inner = blk
    if inner is None:
        return None
    muls = sum(1 for i in inner.instructions if i.opcode is Opcode.MUL)
    adds = sum(1 for i in inner.instructions if i.opcode is Opcode.ADD)
    return len(inner.instructions), muls, adds


def main() -> None:
    a = [float((i * 3) % 11) for i in range(32 * 32)]

    print(f"{'level':<15} {'dynamic ops':>12}  inner-loop(static, mul, add)")
    print("-" * 60)
    for level in OptLevel:
        module = compile_source(SOURCE, level=level.value)
        run = run_routine(module, "colsum", [30], [(a, 8), ([0.0] * 32, 8)])
        stats = count_loop_ops(module)
        print(f"{level.value:<15} {run.dynamic_count:>12,}  {stats}")

    print()
    print("distribution splits (i-1 + (j-1)*32)*8 into (i-1)*8 + (j-1)*32*8;")
    print("the second term is j-loop invariant and PRE hoists it, so the")
    print("inner loop keeps only the i-varying multiply-add of the address.")


if __name__ == "__main__":
    main()
