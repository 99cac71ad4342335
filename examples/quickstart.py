#!/usr/bin/env python3
"""Quickstart: compile a routine at every optimization level and compare.

The library reproduces Briggs & Cooper, "Effective Partial Redundancy
Elimination" (PLDI 1994): global reassociation and global value numbering
reshape and rename code so that PRE removes more redundancies and hoists
more loop invariants.

Run::

    python examples/quickstart.py
"""

from repro.pipeline import OptLevel, compile_source, run_routine

SOURCE = """
routine dot3(n: int, a: real[100], b: real[100]) -> real
  integer i
  real s
  s = 0.0
  do i = 1, n
    # every a(i)/b(i) access recomputes the full byte address — the
    # naive front-end shape the optimizer is supposed to clean up
    s = s + a(i) * b(i) + 2.0 * a(i)
  end
  return s
end
"""


def main() -> None:
    a = [float(i % 7) for i in range(100)]
    b = [float(i % 5) for i in range(100)]

    print("level            dynamic ops   return value")
    print("-" * 48)
    baseline = None
    for level in OptLevel:
        module = compile_source(SOURCE, level=level.value)
        run = run_routine(module, "dot3", [96], [(a, 8), (b, 8)])
        if baseline is None:
            baseline = run.dynamic_count
        saved = (baseline - run.dynamic_count) / baseline
        print(
            f"{level.value:<15} {run.dynamic_count:>12,}   "
            f"{run.value:.6g}   ({saved:+.0%} vs baseline)"
        )

    print()
    print("The final IR at the paper's distribution level:")
    module = compile_source(SOURCE, level="distribution")
    print(module["dot3"])


if __name__ == "__main__":
    main()
