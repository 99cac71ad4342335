#!/usr/bin/env python3
"""Section 4.2: three ways the heuristics can lose.

The paper is candid that reassociation, distribution and forward
propagation occasionally slow code down.  This example reproduces each
published failure mode with measurements:

1. **Reassociation can disguise common subexpressions** — the running
   example's final code recomputes ``y + z`` because the invariants were
   arranged as ``(1 + y) + z``.
2. **Distribution can break commoning** — ``4×(i−1)`` and ``8×(i−1)``
   (a REAL*4-style and a REAL*8 array indexed together) share ``i−1``
   until distribution turns them into ``4i−4`` and ``8i−8``.
3. **Forward propagation can push code into loops** — a partially-dead
   expression moved to its use inside a loop, where a top-test loop
   keeps PRE from hoisting it back out.

Run::

    python examples/degradation.py
"""

from repro.pipeline import OptLevel, compile_source, run_routine

# -- case 2: the paper's mixed-elemsize array pair ---------------------------

MIXED_ARRAYS = """
routine mixed(n: int, a: int[64], b: real[64]) -> real
  integer i
  real s
  s = 0.0
  do i = 1, n
    # a is INTEGER (4-byte), b is REAL (8-byte): the addresses are
    # 4*(i-1) and 8*(i-1); before distribution they share (i-1)
    s = s + real(a(i)) * b(i)
  end
  return s
end
"""

# -- case 3: the paper's j+k pushed into a loop -------------------------------

PARTIALLY_DEAD = """
routine pushed(m: int, j: int, k: int) -> int
  integer i, n
  n = j + k          # used only when i == m — partially dead
  i = 0
  while i < 100
    i = i + 1
    if i == m then
      i = i + n
    end
  end
  return i
end
"""


def measure(source, name, args, arrays=()):
    counts = {}
    for level in OptLevel:
        module = compile_source(source, level=level.value)
        counts[level] = run_routine(module, name, args, arrays).dynamic_count
    return counts


def show(title, counts):
    print(title)
    base = counts[OptLevel.BASELINE]
    for level, count in counts.items():
        delta = (base - count) / base
        print(f"  {level.value:<15} {count:>8,}  ({delta:+.1%} vs baseline)")
    print()


def main() -> None:
    a = [(i * 3) % 9 for i in range(64)]
    b = [float((i * 5) % 7) for i in range(64)]
    show(
        "case 2 — mixed 4-byte/8-byte arrays (distribution may lose the shared i-1):",
        measure(MIXED_ARRAYS, "mixed", [60], [(a, 4), (b, 8)]),
    )

    show(
        "case 3 — partially dead j+k (forward propagation moves it into the loop):",
        measure(PARTIALLY_DEAD, "pushed", [250, 3, 4]),
    )
    print("with m=250 the branch never fires: the baseline computed j+k")
    print("once outside; after forward propagation the computation runs on")
    print("the rare path only (a win for partial-dead elimination!) — but a")
    print("top-test loop shape would have kept PRE from undoing a bad move,")
    print("which is why the paper calls the tradeoff undecidable.")


if __name__ == "__main__":
    main()
