"""Chaitin–Briggs graph-coloring register allocation.

The paper leans on "the coalescing phase of a Chaitin-style global
register allocator" and §4 caveats that PRE's and reassociation's extra
temporaries only show their real cost as *spills* under register
pressure.  This module is the missing back half: it colors the
interference graph of a lowered machine function
(:mod:`repro.backend.lower`) with the target's ``k`` physical registers.

First every block is put in the order the list scheduler
(:mod:`repro.backend.schedule`) would issue it, unless that order needs
more registers than both ``k`` and the block's own order.  Colors chosen
over the issue order leave the post-allocation scheduler no false
dependences to work around.  Then the classic
build–coalesce–simplify–select–spill loop:

1. **Build** the interference graph on bitset liveness
   (:func:`repro.backend.interference.build_interference` — the same
   builder the pre-RA ``coalesce`` pass uses).
2. **Coalesce** copy-connected registers with the conservative Briggs
   criterion (the merged node must have fewer than ``k`` neighbors of
   significant degree), iterated to a fixpoint.  This subsumes the
   standalone coalescer at the machine level.
3. **Simplify** with Briggs-style optimism: nodes of degree < k are
   removed (they can always be colored); when stuck, the cheapest
   spill candidate — cost = Σ (defs+uses) · 10^loop-depth, divided by
   degree — is pushed anyway in the hope a color frees up.
4. **Select** colors popping the stack; a node that finds no free color
   becomes an *actual spill*.
5. **Spill code**: loads before uses, stores after defs, each through a
   fresh short-lived temporary.  Values that are pure rematerializations
   (a constant, or a frame slot the value already lives in — e.g. an
   incoming parameter) are recomputed at each use instead of allocating
   a new slot.  Then the whole loop **rebuilds** until colorable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.manager import analyses
from repro.backend.interference import InterferenceGraph, build_interference
from repro.backend.lower import frame_size, is_machine_form
from repro.backend.schedule import schedule_block
from repro.backend.target import Target, is_physical
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


class AllocationError(RuntimeError):
    """Raised when the rebuild loop fails to reach a colorable graph."""


@dataclass
class AllocationStats:
    """What one allocation run did (reported into BENCH_backend.json)."""

    k: int
    iterations: int = 0
    spilled: list = field(default_factory=list)  # register names, per round
    spill_loads: int = 0  # static reload instructions inserted
    spill_stores: int = 0  # static spill-store instructions inserted
    remat_defs: int = 0  # spills satisfied by rematerialization
    coalesced: int = 0  # moves merged by conservative coalescing
    frame_slots: int = 0  # final frame size (args + spill area)

    @property
    def spill_count(self) -> int:
        return len(self.spilled)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "iterations": self.iterations,
            "spilled_registers": len(self.spilled),
            "spill_loads": self.spill_loads,
            "spill_stores": self.spill_stores,
            "remat_defs": self.remat_defs,
            "coalesced_moves": self.coalesced,
            "frame_slots": self.frame_slots,
        }


def _rename_colliding(func: Function) -> None:
    """Rename virtual registers that look like physical ones (``x12``)."""
    colliding = {reg for reg in func.all_registers() if is_physical(reg)}
    if not colliding:
        return
    mapping = {reg: func.new_reg() for reg in sorted(colliding)}
    for inst in func.instructions():
        if inst.target in mapping:
            inst.target = mapping[inst.target]
        inst.replace_uses(mapping)


def _pressure(instructions: list, live_out) -> int:
    """Registers one block's order needs at once: its peak live count.

    A definition occupies a register even when nothing reads it, so the
    count at each instruction is what is live after it plus its target.
    """
    live = set(live_out)
    peak = len(live)
    for inst in reversed(instructions):
        if inst.target is not None:
            live.add(inst.target)
            peak = max(peak, len(live))
            live.discard(inst.target)
        live.update(inst.srcs)
        peak = max(peak, len(live))
    return peak


def _order_for_schedule(func: Function, target: Target) -> None:
    """Put each block in the order the list scheduler will issue it.

    Colors chosen over the program order tie independent values to the
    same register, and the post-allocation scheduler must then keep the
    WAR/WAW order those reuses create.  Allocating over the scheduled
    order instead leaves it nothing to undo.  A block keeps its own
    order where the scheduled one needs more registers than both ``k``
    and the original: pressure-bound code is not stretched into spills.
    """
    liveness = analyses(func).liveness()
    for blk in func.blocks:
        scheduled = schedule_block(blk.instructions, target)
        if scheduled == blk.instructions:
            continue
        live_out = liveness.at_exit(blk.label)
        original = _pressure(blk.instructions, live_out)
        if _pressure(scheduled, live_out) <= max(target.k, original):
            blk.instructions = scheduled


def _spill_costs(func: Function) -> dict[str, float]:
    """Def+use counts weighted by 10^loop-depth of the enclosing block."""
    depth = analyses(func).loops().depth
    costs: dict[str, float] = {}
    for blk in func.blocks:
        weight = 10.0 ** depth.get(blk.label, 0)
        for inst in blk.instructions:
            for reg in inst.srcs:
                costs[reg] = costs.get(reg, 0.0) + weight
            if inst.target is not None:
                costs[inst.target] = costs.get(inst.target, 0.0) + weight
    return costs


def _coalesce_round(
    func: Function, graph: InterferenceGraph, k: int, no_spill: set[str]
) -> int:
    """One conservative-coalescing sweep; returns the number of merges.

    Briggs criterion: merging is safe when the combined node has fewer
    than ``k`` neighbors of significant (≥ k) degree — such a node is
    guaranteed simplifiable, so coalescing can never turn a colorable
    graph uncolorable.  Moves touching spill temporaries are left alone:
    a temporary exists precisely to keep a live range tiny, and merging
    it away could recreate the uncolorable range that forced the spill.
    """
    merged: dict[str, str] = {}

    def find(reg: str) -> str:
        while reg in merged:
            reg = merged[reg]
        return reg

    count = 0
    for blk in func.blocks:
        for inst in blk.instructions:
            if not inst.is_copy:
                continue
            target, source = find(inst.target), find(inst.srcs[0])
            if target == source or graph.interferes(target, source):
                continue
            if target in no_spill or source in no_spill:
                continue
            combined = (graph.neighbors(target) | graph.neighbors(source)) - {
                target,
                source,
            }
            significant = sum(1 for n in combined if graph.degree(n) >= k)
            if significant >= k:
                continue
            # keep the source name (value flows source -> target)
            merged[target] = source
            graph.merge(source, target)
            count += 1
    if not count:
        return 0
    for blk in func.blocks:
        kept = []
        for inst in blk.instructions:
            if inst.target is not None:
                inst.target = find(inst.target)
            inst.srcs = [find(src) for src in inst.srcs]
            if inst.is_copy and inst.target == inst.srcs[0]:
                continue
            kept.append(inst)
        blk.instructions = kept
    return count


def _color(
    func: Function,
    graph: InterferenceGraph,
    k: int,
    costs: dict[str, float],
    no_spill: set[str],
) -> tuple[dict[str, int], list[str]]:
    """Simplify + optimistic select; returns (coloring, actual spills)."""
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    removed: set[str] = set()
    stack: list[str] = []

    def remove(node: str) -> None:
        removed.add(node)
        stack.append(node)
        for neighbor in graph.neighbors(node):
            if neighbor not in removed:
                degrees[neighbor] -= 1

    while len(removed) < len(degrees):
        trivial = sorted(
            node
            for node, degree in degrees.items()
            if node not in removed and degree < k
        )
        if trivial:
            for node in trivial:
                # degrees shift as we remove; re-check before each removal
                if degrees[node] < k:
                    remove(node)
            continue
        # blocked: every remaining node has significant degree.  Pick the
        # cheapest spill candidate and push it optimistically (Briggs).
        candidates = sorted(
            (
                (costs.get(node, 0.0) / max(1, degrees[node]), node)
                for node in degrees
                if node not in removed and node not in no_spill
            ),
        )
        if not candidates:
            # only spill temporaries are left, and those of different
            # instructions never interfere: one instruction reads more
            # than k registers at once (a call with more than k arguments)
            widest = max(func.instructions(), key=lambda inst: len(set(inst.srcs)))
            raise AllocationError(
                f"{func.name}: `{widest}` reads {len(set(widest.srcs))} "
                f"registers at once, more than k={k}"
            )
        remove(candidates[0][1])

    coloring: dict[str, int] = {}
    spills: list[str] = []
    while stack:
        node = stack.pop()
        used = {
            coloring[n] for n in graph.neighbors(node) if n in coloring
        }
        color = next(
            (c for c in range(k) if c not in used), None
        )
        if color is None:
            spills.append(node)
        else:
            coloring[node] = color
    return coloring, sorted(spills)


def _remat_key(func: Function, reg: str):
    """A rematerialization recipe for ``reg``, or None.

    When every definition of ``reg`` is the same ``loadi imm`` or the
    same ``lds slot`` (an incoming parameter, or a value already
    spilled), the spill needs no store and no new slot: each use just
    recomputes the defining instruction.
    """
    defs = [inst for inst in func.instructions() if inst.target == reg]
    if not defs:
        return None
    first = defs[0]
    if first.opcode not in (Opcode.LOADI, Opcode.LDS):
        return None
    if all(
        inst.opcode is first.opcode and inst.imm == first.imm for inst in defs
    ):
        return (first.opcode, first.imm)
    return None


def _insert_spill_code(
    func: Function,
    spills: list[str],
    stats: AllocationStats,
    no_spill: set[str],
) -> None:
    """Rewrite ``func`` so every spilled register lives in its frame slot."""
    plan: dict[str, tuple[Opcode, int | float, bool]] = {}
    next_slot = frame_size(func)
    for reg in spills:
        remat = _remat_key(func, reg)
        if remat is not None:
            opcode, imm = remat
            plan[reg] = (opcode, imm, True)
            stats.remat_defs += 1
        else:
            plan[reg] = (Opcode.LDS, next_slot, False)
            next_slot += 1
        stats.spilled.append(reg)

    for blk in func.blocks:
        rewritten: list[Instruction] = []
        for inst in blk.instructions:
            # rematerialized defs vanish: the value is recomputed at uses
            if (
                inst.target in plan
                and plan[inst.target][2]
                and inst.opcode in (Opcode.LOADI, Opcode.LDS)
                and (inst.opcode, inst.imm) == plan[inst.target][:2]
            ):
                continue
            reloaded: dict[str, str] = {}
            for reg in inst.srcs:
                if reg in plan and reg not in reloaded:
                    opcode, imm, _is_remat = plan[reg]
                    temp = func.new_reg()
                    no_spill.add(temp)
                    rewritten.append(
                        Instruction(opcode, target=temp, imm=imm)
                    )
                    stats.spill_loads += 1
                    reloaded[reg] = temp
            if reloaded:
                inst.replace_uses(reloaded)
            if inst.target in plan:
                opcode, imm, is_remat = plan[inst.target]
                if is_remat:
                    # a def that isn't the remat recipe still writes the
                    # register (e.g. a copy); fold it into a fresh temp
                    # feeding a store would lose remat, so keep a slot
                    raise AllocationError(
                        f"rematerializable register {inst.target} has a "
                        f"non-remat definition {inst}"
                    )
                temp = func.new_reg()
                no_spill.add(temp)
                inst.target = temp
                rewritten.append(inst)
                rewritten.append(
                    Instruction(Opcode.STS, srcs=[temp], imm=imm)
                )
                stats.spill_stores += 1
                continue
            rewritten.append(inst)
        blk.instructions = rewritten


def allocate_function(
    func: Function,
    target: Target | None = None,
    *,
    max_iterations: int = 40,
) -> AllocationStats:
    """Color ``func`` onto the target's registers, in place.

    Expects machine form (:func:`repro.backend.lower.lower_function`);
    returns the :class:`AllocationStats` describing the run.  After
    success every register in the body is physical (``x0 .. x{k-1}``)
    and self-copies have been deleted.
    """
    target = target if target is not None else Target()
    if not is_machine_form(func):
        raise AllocationError(
            f"{func.name}: not in machine form (run the lower pass first)"
        )
    _rename_colliding(func)
    analyses(func).invalidate_all()
    # reordering within blocks keeps every block's live-in and live-out
    # sets, so the first build reuses the liveness the ordering computed
    _order_for_schedule(func, target)
    k = target.k
    stats = AllocationStats(k=k)
    no_spill: set[str] = set()

    for _ in range(max_iterations):
        stats.iterations += 1
        graph = build_interference(func, params_live_in=False)
        while True:
            merges = _coalesce_round(func, graph, k, no_spill)
            stats.coalesced += merges
            if not merges:
                break
        costs = _spill_costs(func)
        coloring, spills = _color(func, graph, k, costs, no_spill)
        if not spills:
            _rewrite_physical(func, coloring)
            stats.frame_slots = frame_size(func)
            return stats
        _insert_spill_code(func, spills, stats, no_spill)
        analyses(func).invalidate_all()

    raise AllocationError(
        f"{func.name}: no coloring after {max_iterations} spill rounds at k={k}"
    )


def _rewrite_physical(func: Function, coloring: dict[str, int]) -> None:
    """Apply the coloring; registers become ``x<color>``."""
    mapping = {reg: f"x{color}" for reg, color in coloring.items()}
    for blk in func.blocks:
        kept = []
        for inst in blk.instructions:
            if inst.target is not None:
                inst.target = mapping.get(inst.target, inst.target)
            inst.replace_uses(mapping)
            if inst.is_copy and inst.target == inst.srcs[0]:
                continue  # coalescing leftovers: mv xi, xi
            kept.append(inst)
        blk.instructions = kept
    analyses(func).invalidate_all()
