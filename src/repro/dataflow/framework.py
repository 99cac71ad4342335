"""A generic iterative data-flow solver over ``frozenset``s of facts.

Problems are described declaratively (direction, meet, gen/kill per
block, boundary value) and :func:`solve` iterates them to the fixpoint
in rounds over the blocks in an order matched to the direction (reverse
postorder forward, postorder backward).  It is the one solver for every
:class:`DataflowProblem` — liveness, SSA construction, definite
assignment — and it is exact for the distributive gen/kill problems
used here.

The PRE passes and the certify placement audit never build a
``DataflowProblem``: they state availability, anticipability and
partial anticipability on bit masks from the start and solve them with
:func:`repro.dataflow.bitset.solve_masks`.  Each problem therefore has
exactly one solver.  Lowering these frozenset problems to masks as well
was measured and dropped: on the suite's largest problems the
conversion costs more than the bit-parallel solve saves (CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Optional

from repro.cfg.graph import ControlFlowGraph

FactSet = frozenset

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
            intersection problems).
        gen: per-block facts generated (already net of local kills, i.e.
            downward-exposed for forward problems, upward-exposed for
            backward ones).
        kill: per-block facts killed.
        boundary: value at the entry (forward) or at all exits (backward);
            defaults to the empty set.
    """

    direction: Direction
    meet: Meet
    universe: FactSet
    gen: Mapping[str, FactSet]
    kill: Mapping[str, FactSet]
    boundary: FactSet = frozenset()


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
        OUT(b) = gen(b) | (IN(b) - kill(b))

    Backward problems mirror this through successors.  Blocks with no
    meet inputs other than the boundary (the entry forward; exit blocks
    backward) receive the boundary value.

    Sweeps run in the direction-matched order, but a block whose meet
    inputs did not change since its last visit is skipped instead of
    having its meet and transfer recomputed — once a region converges
    its blocks cost nothing on later sweeps.  ``iterations`` counts the
    sweeps.  A sweep cap (default ``4 * blocks + 16``) turns a would-be
    hang on malformed inputs into a structured
    :class:`DataflowConvergenceError`.
    """
    forward = problem.direction == "forward"
    labels = cfg.reverse_postorder if forward else cfg.postorder
    reachable = set(labels)
    if forward:
        sources = {lbl: [p for p in cfg.preds[lbl] if p in reachable] for lbl in labels}
        is_boundary = {lbl: lbl == cfg.entry for lbl in labels}
    else:
        sources = {lbl: [s for s in cfg.succs[lbl] if s in reachable] for lbl in labels}
        is_boundary = {lbl: not cfg.succs[lbl] for lbl in labels}
    union = problem.meet == "union"
    init = frozenset() if union else problem.universe
    if max_sweeps is None:
        max_sweeps = 4 * len(labels) + 16

    dependents: dict[str, list[str]] = {lbl: [] for lbl in labels}
    for lbl in labels:
        for src in sources[lbl]:
            dependents[src].append(lbl)

    order_index = {lbl: i for i, lbl in enumerate(labels)}
    before: dict[str, FactSet] = {lbl: init for lbl in labels}
    after: dict[str, FactSet] = {lbl: init for lbl in labels}
    pending = set(labels)

    iterations = 0
    while pending:
        iterations += 1
        if iterations > max_sweeps:
            raise DataflowConvergenceError(cfg.func.name, iterations, max_sweeps)
        current, pending = pending, set()
        for index, label in enumerate(labels):
            if label not in current:
                continue
            values = [after[src] for src in sources[label]]
            if is_boundary[label]:
                values.append(problem.boundary)
            incoming = values[0] if values else init
            for value in values[1:]:
                incoming = incoming | value if union else incoming & value
            before[label] = incoming
            outgoing = problem.gen[label] | (incoming - problem.kill[label])
            if outgoing != after[label]:
                after[label] = outgoing
                for dep in dependents[label]:
                    # a dep later in this sweep's order recomputes now; an
                    # earlier one (a back edge) waits for the next sweep
                    if order_index[dep] > index:
                        current.add(dep)
                    else:
                        pending.add(dep)

    if forward:
        return DataflowResult(inn=before, out=after, iterations=iterations)
    # for backward problems "before" is the value at block *exit*
    return DataflowResult(inn=after, out=before, iterations=iterations)
