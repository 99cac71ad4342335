"""Dense bit-vector dataflow: fact interning, mask ops, worklist solver.

The PRE passes (:mod:`repro.passes.pre_common`) and the certify
placement audit state their problems on bit masks from the start:
expression keys are interned once per function into a
:class:`FactUniverse` (fact ↔ bit index), per-block local properties
become Python ints used as dense bit vectors (arbitrary width, with
``&``/``|``/``~`` compiled in C), and :func:`solve_masks` drives the
fixpoint with a :class:`SparseSet` worklist seeded in an order matched
to the problem direction — reverse postorder for forward problems,
postorder for backward ones — so most blocks stabilize on their first
visit.  Problems stated over ``frozenset``s solve with
:func:`repro.dataflow.framework.solve` instead; no problem is solved
both ways.

The engine is exact for the same class of problems as the frozenset
solver (monotone gen/kill over a finite universe), and the two are
tested result-identical on randomized CFGs for all four problem shapes
(forward/backward × union/intersection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Literal, Mapping, Optional

Meet = Literal["union", "intersection"]


class FactUniverse:
    """An interning table mapping hashable facts to bit positions.

    The universe is append-only: interning is done once per function
    (expression keys in first-occurrence order, register names sorted)
    so bit positions — and therefore every mask — are deterministic
    across runs.
    """

    __slots__ = ("facts", "index", "_all")

    def __init__(self, facts: Iterable[Hashable] = ()) -> None:
        self._all: Optional[frozenset] = None  # cache for dense facts_of
        listed = list(facts)
        index = {fact: i for i, fact in enumerate(listed)}
        if len(index) == len(listed):
            # the common case: already-unique facts intern in one sweep
            self.facts = listed
            self.index = index
        else:
            self.facts = []
            self.index = {}
            for fact in listed:
                self.intern(fact)

    def intern(self, fact: Hashable) -> int:
        """The bit position of ``fact``, assigning the next free bit."""
        position = self.index.get(fact)
        if position is None:
            position = len(self.facts)
            self.index[fact] = position
            self.facts.append(fact)
            self._all = None
        return position

    def bit(self, fact: Hashable) -> int:
        """The single-bit mask of an already-interned fact."""
        return 1 << self.index[fact]

    def mask_of(self, facts: Iterable[Hashable]) -> int:
        """The mask with every listed (already-interned) fact's bit set."""
        index = self.index
        mask = 0
        for fact in facts:
            mask |= 1 << index[fact]
        return mask

    def facts_of(self, mask: int) -> frozenset:
        """The facts whose bits are set in ``mask``.

        Sparse masks walk their set bits; dense masks (more than half
        the universe) subtract the complement's facts from the cached
        full set instead — one C-level frozenset difference beats a
        Python loop over thousands of bits.
        """
        count = mask.bit_count()
        if 2 * count <= len(self.facts):
            return self._sparse_facts(mask)
        every = self._all
        if every is None:
            every = self._all = frozenset(self.facts)
        if count == len(self.facts):
            return every
        return every - self._sparse_facts(self.full_mask ^ mask)

    def _sparse_facts(self, mask: int) -> frozenset:
        facts = self.facts
        found = []
        while mask:
            low = mask & -mask
            found.append(facts[low.bit_length() - 1])
            mask ^= low
        return frozenset(found)

    @property
    def full_mask(self) -> int:
        """The mask with every interned fact's bit set (the ⊤ value)."""
        return (1 << len(self.facts)) - 1

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, fact: Hashable) -> bool:
        return fact in self.index

    def __repr__(self) -> str:
        return f"<FactUniverse of {len(self.facts)} facts>"


class SparseSet:
    """A worklist over ``range(capacity)``: O(1) add, pop and membership.

    The classic sparse/dense pair (Briggs & Torczon, "An Efficient
    Representation for Sparse Sets"): ``dense[:size]`` holds the members,
    ``sparse[v]`` the position of ``v`` in ``dense``.  Unlike a Python
    ``set``, re-adding a present member is free and removal is O(1) with
    no hashing, which lets the solver drain members in slot order with a
    cycling cursor instead of paying a heap or re-sort.
    """

    __slots__ = ("dense", "sparse", "size")

    def __init__(self, capacity: int) -> None:
        self.dense = [0] * capacity
        self.sparse = [0] * capacity
        self.size = 0

    def add(self, value: int) -> bool:
        """Add ``value``; returns False when it was already present."""
        position = self.sparse[value]
        if position < self.size and self.dense[position] == value:
            return False
        self.dense[self.size] = value
        self.sparse[value] = self.size
        self.size += 1
        return True

    def pop(self) -> int:
        self.size -= 1
        return self.dense[self.size]

    def remove(self, value: int) -> bool:
        """Remove ``value``; returns False when it was not present."""
        position = self.sparse[value]
        if position >= self.size or self.dense[position] != value:
            return False
        self.size -= 1
        last = self.dense[self.size]
        self.dense[position] = last
        self.sparse[last] = position
        return True

    def __contains__(self, value: int) -> bool:
        position = self.sparse[value]
        return position < self.size and self.dense[position] == value

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0


@dataclass
class SolverStats:
    """Work counters accumulated over :func:`solve_masks` runs.

    ``pops`` counts worklist extractions, the engine's unit of work; it
    depends only on the IR and the iteration order, never on machine
    speed, and is the quantity the CI bench guards against regression.
    """

    solves: int = 0
    pops: int = 0
    updates: int = 0

    def reset(self) -> None:
        self.solves = self.pops = self.updates = 0

    def as_dict(self) -> dict:
        return {"solves": self.solves, "pops": self.pops, "updates": self.updates}


#: Process-wide accumulation (reset/read by ``repro bench dataflow``).
GLOBAL_STATS = SolverStats()


@dataclass
class MaskProblem:
    """A gen/kill problem over the bits of one :class:`FactUniverse`.

    ``order`` lists the block labels in the iteration order matched to
    the direction (reverse postorder for forward, postorder for
    backward); ``sources`` maps each block to the blocks its meet reads
    (predecessors forward, successors backward); ``boundary_blocks``
    are blocks whose meet additionally includes the boundary mask (the
    entry forward; exit blocks backward).
    """

    universe: FactUniverse
    meet: Meet
    order: list[str]
    sources: Mapping[str, list[str]]
    boundary_blocks: frozenset
    gen: Mapping[str, int]
    kill: Mapping[str, int]
    boundary: int = 0


@dataclass
class MaskResult:
    """Fixpoint masks at the meet side (``before``) and flow side (``after``).

    For a forward problem ``before`` is block entry and ``after`` block
    exit; backward problems mirror the roles.
    """

    before: dict[str, int]
    after: dict[str, int]


def solve_masks(problem: MaskProblem) -> MaskResult:
    """Worklist iteration of a :class:`MaskProblem` to its fixpoint.

    Blocks are seeded in ``problem.order`` and drained by a cursor that
    cycles through slot indices, so extraction follows the seeded
    direction-matched order on the first sweep and every wrap-around
    after it — the schedule that makes most blocks stabilize on their
    first visit.  A block re-enters the worklist only when a source's
    ``after`` mask changes, so an already-converged region costs one
    O(1) membership probe per wrap, never a meet.
    """
    order = problem.order
    n = len(order)
    slot = {label: i for i, label in enumerate(order)}
    full = problem.universe.full_mask
    init = full if problem.meet == "intersection" else 0
    union = problem.meet == "union"

    gen = [problem.gen[label] for label in order]
    not_kill = [full & ~problem.kill[label] for label in order]
    sources = [[slot[s] for s in problem.sources[label]] for label in order]
    has_boundary = [label in problem.boundary_blocks for label in order]
    # dependents[i]: blocks whose meet reads block i's ``after`` mask
    dependents: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for src in sources[i]:
            dependents[src].append(i)

    before = [init] * n
    after = [init] * n
    pops = 0
    updates = 0

    worklist = SparseSet(n)
    for i in range(n):
        worklist.add(i)

    boundary = problem.boundary
    cursor = 0
    while worklist.size:
        if cursor >= n:
            cursor = 0
        i = cursor
        cursor += 1
        if not worklist.remove(i):
            continue
        pops += 1
        srcs = sources[i]
        if union:
            incoming = boundary if has_boundary[i] else 0
            for s in srcs:
                incoming |= after[s]
        else:
            if srcs:
                incoming = full
                for s in srcs:
                    incoming &= after[s]
                if has_boundary[i]:
                    incoming &= boundary
            else:
                incoming = boundary if has_boundary[i] else full
        before[i] = incoming
        outgoing = gen[i] | (incoming & not_kill[i])
        if outgoing != after[i]:
            after[i] = outgoing
            updates += 1
            for dep in dependents[i]:
                worklist.add(dep)

    GLOBAL_STATS.solves += 1
    GLOBAL_STATS.pops += pops
    GLOBAL_STATS.updates += updates
    return MaskResult(
        before={label: before[i] for i, label in enumerate(order)},
        after={label: after[i] for i, label in enumerate(order)},
    )
