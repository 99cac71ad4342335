"""The paper's running example (Figures 2-10), end to end.

Source (Figure 2)::

    FUNCTION foo(y, z)
      s = 0
      x = y + z
      DO i = x, 100
        s = 1 + s + x
      ENDDO
      RETURN s

The paper's claims to verify:

* the transformations reduce the loop body by one operation relative to
  PRE alone (section 3.2, "Finishing the Example");
* no path through the routine gets longer;
* reassociation + value numbering hoist the invariants ``1 + x`` out of
  the loop (Figure 9 hoists r6 <- r0 + 1 and r7 <- r6 + r1);
* coalescing removes all the copies (Figure 10).
"""

import pytest

from repro.ir import Opcode
from repro.pipeline import OptLevel, compile_source, run_routine

FOO = """
routine foo(y: int, z: int) -> int
  integer s, x, i
  s = 0
  x = y + z
  do i = x, 100
    s = 1 + s + x
  end
  return s
end
"""


def reference_foo(y, z):
    s = 0
    x = y + z
    i = x
    while i <= 100:
        s = 1 + s + x
        i += 1
    return s


def counts_at_every_level(y, z):
    results = {}
    for level in OptLevel:
        module = compile_source(FOO, level=level.value)
        run = run_routine(module, "foo", [y, z])
        assert run.value == reference_foo(y, z), level
        results[level] = run.dynamic_count
    return results


def test_all_levels_compute_the_right_answer():
    for y, z in [(1, 2), (0, 0), (50, 50), (100, 100), (200, 5)]:
        counts_at_every_level(y, z)  # asserts internally


def test_monotone_improvement_on_the_hot_case():
    counts = counts_at_every_level(1, 2)  # 98 iterations
    assert counts[OptLevel.PARTIAL] < counts[OptLevel.BASELINE]
    assert counts[OptLevel.REASSOCIATION] < counts[OptLevel.PARTIAL]
    assert counts[OptLevel.DISTRIBUTION] <= counts[OptLevel.REASSOCIATION]


def test_loop_shortened_by_one_operation():
    """Section 3.2: 'the sequence of transformations reduced the length of
    the loop by 1 operation' relative to PRE alone."""
    per_iteration = {}
    for level in (OptLevel.PARTIAL, OptLevel.REASSOCIATION):
        module = compile_source(FOO, level=level.value)
        big = run_routine(module, "foo", [1, 2]).dynamic_count  # 98 iters
        small = run_routine(module, "foo", [1, 92]).dynamic_count  # 8 iters
        per_iteration[level] = (big - small) / 90
    assert per_iteration[OptLevel.PARTIAL] - per_iteration[OptLevel.REASSOCIATION] == pytest.approx(1.0)


def test_no_path_lengthened():
    """'without increasing the length of any path through the routine' —
    including the zero-trip path (x > 100)."""
    for y, z in [(200, 5), (1, 2), (100, 0)]:
        counts = counts_at_every_level(y, z)
        assert counts[OptLevel.REASSOCIATION] <= counts[OptLevel.BASELINE]
        assert counts[OptLevel.DISTRIBUTION] <= counts[OptLevel.BASELINE]


def test_invariants_hoisted_out_of_loop():
    """Figure 9: the adds for 1+y and (1+y)+z sit outside the loop; the
    body keeps one add for s and one for i."""
    module = compile_source(FOO, level="reassociation")
    func = module["foo"]
    # find the loop body: the block that branches back to itself
    body = next(
        blk
        for blk in func.blocks
        if blk.terminator is not None
        and blk.terminator.opcode is Opcode.CBR
        and blk.label in blk.terminator.labels
    )
    body_adds = [i for i in body.instructions if i.opcode is Opcode.ADD]
    assert len(body_adds) == 2  # s accumulation + loop increment


def test_coalescing_removed_all_copies():
    """Figure 10: 'in this example, coalescing is able to remove all the
    copies'."""
    module = compile_source(FOO, level="reassociation")
    func = module["foo"]
    copies = [i for i in func.instructions() if i.opcode is Opcode.COPY]
    assert copies == []
