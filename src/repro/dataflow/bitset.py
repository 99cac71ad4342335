"""Fact interning for data-flow problems stated on bit masks.

The PRE passes (:mod:`repro.passes.pre_common`) and the certify
placement audit state their problems on bit masks from the start:
expression keys are interned once per function into a
:class:`FactUniverse` (fact ↔ bit index), and per-block local
properties become Python ints used as dense bit vectors (arbitrary
width, with ``&``/``|``/``-`` compiled in C).  The masks go straight
into a :class:`~repro.dataflow.framework.DataflowProblem` and are
solved by :func:`repro.dataflow.framework.solve`, the same loop that
solves problems stated on ``frozenset``\\ s; the solver never sees the
table, and nothing converts a problem from one encoding to the other.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional


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
