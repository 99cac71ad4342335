"""Differential testing of the whole pipeline.

Every optimization level must preserve the observable behaviour of every
program — return values and final array contents — and the optimized
dynamic count must never exceed the unoptimized one by more than the
no-path-lengthening slack (zero; PRE and friends may only help or keep).

A hypothesis generator builds random (always-terminating) mini-FORTRAN
routines; each is run unoptimized and at all four levels.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import OptLevel, compile_source, run_routine


def behaviour(source, routine, args, arrays=()):
    module = compile_source(source)  # unoptimized
    return run_routine(module, routine, args, arrays)


def check_all_levels(source, routine, cases, arrays_spec=()):
    """Each case: tuple of scalar args.  Returns per-level counts."""
    reference = {
        case: behaviour(source, routine, case, arrays_spec) for case in cases
    }
    counts = {}
    for level in OptLevel:
        module = compile_source(source, level=level.value)
        for case in cases:
            run = run_routine(module, routine, case, arrays_spec)
            ref = reference[case]
            assert run.value == ref.value, (level, case)
            assert run.arrays == ref.arrays, (level, case)
            counts[(level, case)] = run.dynamic_count
    return counts, reference


# ---------------------------------------------------------------------------
# random program generation
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c", "d"]


class _Gen:
    """Builds a random routine from hypothesis-drawn integers."""

    def __init__(self, choices):
        self.choices = iter(choices)
        self.loop_depth = 0
        self.loop_counter = 0

    def pick(self, n):
        return next(self.choices, 0) % n

    def expr(self, depth=0):
        kind = self.pick(6) if depth < 3 else self.pick(2)
        if kind == 0:
            return str(self.pick(7) - 3)
        if kind == 1:
            return _VARS[self.pick(len(_VARS))]
        if kind == 2:
            return f"({self.expr(depth + 1)} + {self.expr(depth + 1)})"
        if kind == 3:
            return f"({self.expr(depth + 1)} - {self.expr(depth + 1)})"
        if kind == 4:
            return f"({self.expr(depth + 1)} * {self.expr(depth + 1)})"
        return f"max({self.expr(depth + 1)}, {self.expr(depth + 1)})"

    def cond(self):
        ops = ["<", "<=", ">", ">=", "==", "!="]
        return f"{self.expr(2)} {ops[self.pick(len(ops))]} {self.expr(2)}"

    def statement(self, depth, lines, indent):
        kind = self.pick(5) if depth < 2 else self.pick(2)
        pad = "  " * indent
        if kind in (0, 1):
            var = _VARS[self.pick(len(_VARS))]
            # loop-carried products like d = d*d explode doubly
            # exponentially; keep values bounded so runs stay cheap
            lines.append(f"{pad}{var} = mod({self.expr()}, 2477)")
        elif kind == 2:
            lines.append(f"{pad}if {self.cond()} then")
            self.block(depth + 1, lines, indent + 1)
            if self.pick(2):
                lines.append(f"{pad}else")
                self.block(depth + 1, lines, indent + 1)
            lines.append(f"{pad}end")
        elif kind == 3 and self.loop_depth < 2:
            self.loop_counter += 1
            loop_var = f"i{self.loop_counter}"
            lo = self.pick(3) + 1
            hi = lo + self.pick(4)
            lines.append(f"{pad}do {loop_var} = {lo}, {hi}")
            self.loop_depth += 1
            self.block(depth + 1, lines, indent + 1)
            self.loop_depth -= 1
            lines.append(f"{pad}end")
        else:
            var = _VARS[self.pick(len(_VARS))]
            lines.append(f"{pad}{var} = mod({self.expr()}, 2477)")

    def block(self, depth, lines, indent):
        for _ in range(1 + self.pick(3)):
            self.statement(depth, lines, indent)

    def routine(self):
        lines = ["routine f(a: int, b: int) -> int"]
        loop_vars = ", ".join(f"i{i}" for i in range(1, 9))
        lines.append(f"  integer c, d, {loop_vars}")
        lines.append("  c = 0")
        lines.append("  d = 1")
        self.block(0, lines, 1)
        lines.append("  return a + b + c + d")
        lines.append("end")
        return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(choices=st.lists(st.integers(0, 2 ** 16), min_size=60, max_size=60))
def test_random_programs_agree_across_levels(choices):
    source = _Gen(choices).routine()
    check_all_levels(source, "f", [(3, 5), (-2, 7), (0, 0)])


@settings(max_examples=25, deadline=None)
@given(choices=st.lists(st.integers(0, 2 ** 16), min_size=60, max_size=60))
def test_random_programs_never_slower(choices):
    """Optimized dynamic count never exceeds the unoptimized count."""
    source = _Gen(choices).routine()
    counts, reference = check_all_levels(source, "f", [(3, 5), (-4, 2)])
    for (level, case), count in counts.items():
        assert count <= reference[case].result.dynamic_count, (level, case)


# ---------------------------------------------------------------------------
# array-touching program, fixed but thorough
# ---------------------------------------------------------------------------

STENCIL = """
routine smooth(n: int, src: real[64], dst: real[64])
  integer i
  real w
  w = 1.0 / 3.0
  do i = 2, n - 1
    dst(i) = w * (src(i - 1) + src(i) + src(i + 1))
  end
end
"""


def test_stencil_all_levels():
    values = [float(i * i % 13) for i in range(64)]
    arrays = [(values, 8), ([0.0] * 64, 8)]
    check_all_levels(STENCIL, "smooth", [(10,), (64,), (2,)], arrays)


MATMUL = """
routine matmul(n: int, a: real[8, 8], b: real[8, 8], c: real[8, 8])
  integer i, j, k
  real s
  do j = 1, n
    do i = 1, n
      s = 0.0
      do k = 1, n
        s = s + a(i, k) * b(k, j)
      end
      c(i, j) = s
    end
  end
end
"""


def test_matmul_all_levels_and_improvement():
    import random

    rng = random.Random(7)
    a = [float(rng.randint(0, 9)) for _ in range(64)]
    b = [float(rng.randint(0, 9)) for _ in range(64)]
    arrays = [(a, 8), (b, 8), ([0.0] * 64, 8)]
    counts, reference = check_all_levels(MATMUL, "matmul", [(8,)], arrays)
    base = counts[(OptLevel.BASELINE, (8,))]
    partial = counts[(OptLevel.PARTIAL, (8,))]
    reassoc = counts[(OptLevel.REASSOCIATION, (8,))]
    dist = counts[(OptLevel.DISTRIBUTION, (8,))]
    # the paper's headline shape: PRE wins; reassociation+distribution win more
    assert partial < base
    assert dist < partial


def test_call_crossing_program():
    source = """
    routine helper(x: int) -> int
      return x * x + 1
    end

    routine f(a: int, b: int) -> int
      integer s, i
      s = 0
      do i = 1, a
        s = s + helper(i + b)
      end
      return s
    end
    """
    check_all_levels(source, "f", [(5, 2), (0, 0), (3, -1)])


def test_while_loop_program():
    source = """
    routine collatz(n: int) -> int
      integer steps
      steps = 0
      while n != 1
        if mod(n, 2) == 0 then
          n = n / 2
        else
          n = 3 * n + 1
        end
        steps = steps + 1
      end
      return steps
    end
    """
    check_all_levels(source, "collatz", [(27,), (1,), (6,)])


def test_floating_point_program():
    source = """
    routine horner(x: real, a: real, b: real, c: real, d: real) -> real
      return ((a * x + b) * x + c) * x + d
    end
    """
    check_all_levels(source, "horner", [(2.0, 1.0, -3.0, 0.5, 7.0), (0.0, 1.0, 1.0, 1.0, 1.0)])
