"""The one iterative data-flow solver, over ``frozenset``s or bit masks.

Problems are described declaratively (direction, meet, gen/kill per
block, boundary value) and :func:`solve` iterates them to the fixpoint
in sweeps over the blocks in an order matched to the direction (reverse
postorder forward, postorder backward).  It is the solver for every
:class:`DataflowProblem` — liveness, SSA construction, definite
assignment, CSE availability, the PRE passes' availability and
anticipability and the certify placement audit's partial
anticipability — and it is exact for the distributive gen/kill
problems used here.

A problem states its universe, gen, kill and boundary in one encoding:
``frozenset``\\ s of hashable facts, or Python ints used as bit masks
over a :class:`~repro.dataflow.bitset.FactUniverse`.  The same loop
solves both, because the meet (``|``/``&``) and the transfer
``gen | (in - (in & kill))`` mean the same on either.  No problem is
converted between encodings: lowering the frozenset problems to masks
was measured and dropped, since on the suite's largest problems the
conversion costs more than the bit-parallel solve saves (CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Literal, Mapping, Optional, Union

from repro.cfg.graph import ControlFlowGraph

#: A set of facts: a ``frozenset``, or an int whose set bits index a
#: :class:`~repro.dataflow.bitset.FactUniverse`.
FactSet = Union[frozenset, int]

#: Meet operators.  ``union`` for "any path" problems (liveness);
#: ``intersection`` for "all paths" problems (availability, anticipability).
Meet = Literal["union", "intersection"]
Direction = Literal["forward", "backward"]


@dataclass(frozen=True)
class DataflowProblem:
    """A gen/kill data-flow problem over a fixed universe of facts.

    Attributes:
        direction: "forward" (facts flow along edges) or "backward".
        meet: "union" or "intersection".
        universe: every fact that can occur (the top value for
            intersection problems): a ``frozenset``, or the full mask
            of a :class:`~repro.dataflow.bitset.FactUniverse`.  Gen,
            kill and boundary use the same encoding.
        gen: per-block facts generated (already net of local kills, i.e.
            downward-exposed for forward problems, upward-exposed for
            backward ones).
        kill: per-block facts killed.
        boundary: value at the entry (forward) or at all exits (backward);
            defaults to the empty value of the encoding (``frozenset()``
            or ``0``).
    """

    direction: Direction
    meet: Meet
    universe: FactSet
    gen: Mapping[str, FactSet]
    kill: Mapping[str, FactSet]
    boundary: Optional[FactSet] = None

    def __post_init__(self) -> None:
        if self.boundary is None:
            object.__setattr__(self, "boundary", type(self.universe)())


@dataclass
class DataflowResult:
    """Fixpoint solution: facts at block entry and exit."""

    inn: dict[str, FactSet]
    out: dict[str, FactSet]
    iterations: int

    def at_entry(self, label: str) -> FactSet:
        return self.inn[label]

    def at_exit(self, label: str) -> FactSet:
        return self.out[label]


@dataclass
class SolverStats:
    """Work counters accumulated over :func:`solve` runs.

    ``pops`` counts block evaluations (a meet and a transfer), the
    solver's unit of work; it depends only on the IR and the iteration
    order, never on machine speed, and is the quantity the CI bench
    guards against regression.  ``updates`` counts evaluations that
    changed a block's flow-side value.
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


class DataflowConvergenceError(Exception):
    """The solver exceeded its sweep cap without converging.

    Monotone gen/kill problems always converge, so hitting the cap
    means the problem inputs are malformed (a gen/kill map inconsistent
    with the CFG handed in, or a CFG whose pred/succ maps disagree).
    Carries a structured :class:`~repro.verify.diagnostics.Diagnostic`
    so pipeline drivers can report it like any other IR finding.
    """

    def __init__(self, function: str, sweeps: int, cap: int) -> None:
        super().__init__(
            f"dataflow solve on {function!r} did not converge after "
            f"{sweeps} sweeps (cap {cap}); the CFG or gen/kill maps are "
            "malformed"
        )
        self.function = function
        self.sweeps = sweeps
        self.cap = cap

    @property
    def diagnostic(self):
        from repro.verify.diagnostics import Diagnostic

        return Diagnostic(
            checker="dataflow",
            severity="error",
            function=self.function,
            message=(
                f"solver hit the {self.cap}-sweep convergence cap "
                "(malformed CFG or gen/kill maps)"
            ),
        )


def solve(
    problem: DataflowProblem,
    cfg: ControlFlowGraph,
    max_sweeps: Optional[int] = None,
) -> DataflowResult:
    """Solve the problem to its fixpoint over the reachable blocks.

    For a forward problem::

        IN(b)  = meet over predecessors p of OUT(p)     (boundary at entry)
        OUT(b) = gen(b) | (IN(b) - (IN(b) & kill(b)))

    Backward problems mirror this through successors.  Blocks with no
    meet inputs other than the boundary (the entry forward; exit blocks
    backward) receive the boundary value.  On frozensets the transfer is
    a set difference; on ints, subtracting bits that ``IN(b)`` already
    holds clears exactly those bits.

    Blocks are slots in the direction-matched order, each with a queued
    flag.  A sweep visits the queued slots in order; a block whose
    flow-side value changes queues the blocks that read it, which a
    later slot picks up in the same sweep and an earlier one (a back
    edge) in the next, so a converged region costs nothing on later
    sweeps.  ``iterations`` counts the sweeps; :data:`GLOBAL_STATS`
    counts the solve, its block evaluations and its updates.  A sweep
    cap (default ``4 * blocks + 16``) turns a would-be hang on malformed
    inputs into a structured :class:`DataflowConvergenceError`.
    """
    forward = problem.direction == "forward"
    order = cfg.reverse_postorder if forward else cfg.postorder
    n = len(order)
    slot = {label: i for i, label in enumerate(order)}
    neighbours = cfg.preds if forward else cfg.succs
    # slot n holds the boundary value: a meet input of the entry
    # (forward) or of every exit block (backward) that never changes
    sources = [
        [slot[s] for s in neighbours[label] if s in slot] for label in order
    ]
    for i, label in enumerate(order):
        if (label == cfg.entry) if forward else not cfg.succs[label]:
            sources[i].append(n)
    dependents: list[list[int]] = [[] for _ in range(n + 1)]
    for i, srcs in enumerate(sources):
        for src in srcs:
            dependents[src].append(i)

    union = problem.meet == "union"
    meet = or_ if union else and_
    init = type(problem.universe)() if union else problem.universe
    gen = [problem.gen[label] for label in order]
    kill = [problem.kill[label] for label in order]
    before = [init] * n
    after = [init] * n + [problem.boundary]
    if max_sweeps is None:
        max_sweeps = 4 * n + 16

    queued = [True] * n
    sweeps = pops = updates = 0
    again = True
    while again:
        sweeps += 1
        if sweeps > max_sweeps:
            raise DataflowConvergenceError(cfg.func.name, sweeps, max_sweeps)
        again = False
        for i in range(n):
            if not queued[i]:
                continue
            queued[i] = False
            pops += 1
            srcs = sources[i]
            incoming = reduce(meet, map(after.__getitem__, srcs)) if srcs else init
            before[i] = incoming
            outgoing = gen[i] | (incoming - (incoming & kill[i]))
            if outgoing != after[i]:
                after[i] = outgoing
                updates += 1
                for dep in dependents[i]:
                    queued[dep] = True
                    # a later slot recomputes in this sweep; an earlier
                    # one (a back edge) waits for the next
                    if dep <= i:
                        again = True

    GLOBAL_STATS.solves += 1
    GLOBAL_STATS.pops += pops
    GLOBAL_STATS.updates += updates
    before_of = dict(zip(order, before))
    after_of = dict(zip(order, after))
    if forward:
        return DataflowResult(inn=before_of, out=after_of, iterations=sweeps)
    # for backward problems "before" is the value at block *exit*
    return DataflowResult(inn=after_of, out=before_of, iterations=sweeps)
