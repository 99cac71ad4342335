"""Lifetime-optimal speculative PRE (lospre) as a profile-weighted min cut.

Krause's formulation ("lospre in linear time", PAPERS.md) subsumes both
conservative solvers in this repo: instead of asking *where must the
expression be computed so no path lengthens*, it asks *which placement
minimizes expected dynamic computations under a frequency assignment*,
and answers with an s-t minimum cut per expression.

The network, per expression ``e`` (nodes are basic blocks):

* Unavailability flows from a super-source ``S``: into the entry block
  (nothing is available on function entry) and out of every block that
  kills ``e`` without recomputing it (``KILL ∧ ¬COMP``).
* A CFG edge ``i→j`` becomes an arc carrying that unavailability
  onward, capacity = the edge's execution frequency — *cutting the arc
  means inserting a computation of ``e`` on that edge*.  Arcs out of
  ``COMP`` blocks do not exist (the block regenerates availability),
  and arcs where insertion is illegal get infinite capacity: edges into
  the entry block, edges whose target is not anticipating ``e`` when
  ``e`` may trap (speculation is only for trap-free expressions — the
  static safety set never bends to the profile), and edges where some
  operand of ``e`` is not yet defined (speculating would read an
  undefined register on paths that never computed ``e``).
* Every block with an upward-exposed use of ``e`` gets an arc to the
  super-sink ``T``, capacity = the block's execution frequency —
  *cutting it means keeping the original computation there*.

Any finite cut severs every unavailability path to every use, so the
cut arcs are a correct placement: insert on the cut CFG edges, delete
the uses whose retain-arc is uncut.  The cut through all use arcs is
the do-nothing placement, so the *minimum* cut never exceeds it —
lospre is never worse than leaving the code alone, under the profile.
Among minimum cuts the sink-side (latest) one is chosen: computations
land as close to their uses as cost allows, minimizing the lifetime of
the temporary — Krause's lifetime-optimality tie-break.

Per-expression cost models cannot see what happens *after* placement:
deleting an occurrence of an unnamed expression leaves a register copy
behind (``apply_placement`` must preserve the occurrence's target), and
whether coalescing later erases that copy depends on interference the
solver never models.  So lospre arbitrates at the whole-function level:
three complete candidate placements — the per-expression min-cut mix,
the LCM solution, and the Morel–Renvoise solution — are each applied to
a throwaway clone, the baseline cleanup suffix (exactly what the real
pipeline runs next) is run over it, and the *surviving* instructions
are priced by block frequency.  Under a measured profile that score
**is** the function's dynamic operation count, so taking the minimum
makes lospre never worse than either conservative solver on any
function, by construction.  Ties prefer LCM, then Morel–Renvoise:
output stays identical to ``pre`` wherever speculation does not
strictly pay.  A candidate identical to an earlier one is priced once.

Each whole LCM or Morel–Renvoise solution defines an expression's name
before the inserted expressions that read it; the per-expression mix
need not, since it may take one expression from one solver and an
expression reading its name from another.  So a candidate whose placed
code reads a register at a point some path leaves it unassigned (a
read the input did not already make) is not eligible, whatever it
costs.

Frequencies come from :func:`repro.analysis.freq.resolve_frequencies`:
a measured profile when the store has one for this exact body hash,
else the ``10 ** loop_depth`` static estimate.  Every insertion is
logged to the speculation witness so the certify placement audit can
re-check the arithmetic instead of refuting the speculative sites.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.opcodes import MAYBE_TRAPPING, Opcode
from repro.dataflow.framework import solve
from repro.dataflow.mincut import INFINITY, FlowNetwork
from repro.dataflow.problems import definite_assignment_problem
from repro.passes.pre import PREReport, apply_placement, solve_lcm_placement
from repro.passes.pre_common import PREContext, prepare_pre
from repro.passes.pre_mr import solve_mr_placement
from repro.pm import remarks
from repro.pm.registry import register_pass
from repro.profile.witness import (
    InsertionWitness,
    SpeculationWitness,
    record_witness,
)

#: Expressions that may fault at run time: never speculated.  Division
#: and modulus trap on zero divisors, intrinsics on domain errors
#: (``sqrt`` of a negative), loads on bad addresses.  These may only be
#: inserted where the original program anticipated them.
SPECULATION_UNSAFE_OPCODES = frozenset(MAYBE_TRAPPING) | {
    Opcode.INTRIN,
    Opcode.LOAD,
}

_SOURCE = ("lospre", "source")
_SINK = ("lospre", "sink")


def speculation_safe(key) -> bool:
    """May ``key`` execute on paths where the program never computed it?"""
    return key[0] not in SPECULATION_UNSAFE_OPCODES


@register_pass("lospre", kind="transform", invalidates_ssa=True)
def lifetime_optimal_speculative_pre(func: Function) -> Function:
    """Run speculative PRE over ``func`` (in place); returns ``func``.

    Requires φ-free input, like both conservative PRE solvers; raises
    :class:`ValueError` otherwise.
    """
    lospre_transform(func)
    return func


def lospre_transform(func: Function, *, store=None) -> PREReport:
    """lospre returning a :class:`PREReport` of the work performed."""
    from repro.analysis.freq import resolve_frequencies

    report = PREReport()
    ctx = prepare_pre(func)
    witness = SpeculationWitness(function=func.name, profile_source="static")
    if ctx is None:
        record_witness(witness)
        return report

    freq = resolve_frequencies(func, store=store)
    witness.profile_source = freq.source
    # an inserted computation may only read registers every path to the
    # insertion point has defined, else it would read an undefined one
    # on paths the original never took: the cut's arcs and the
    # arbitration both hold placements to this
    assigned = solve(definite_assignment_problem(ctx.func), ctx.cfg)

    lcm = solve_lcm_placement(ctx)
    mr = solve_mr_placement(ctx)
    cut_witness = SpeculationWitness(
        function=func.name, profile_source=freq.source
    )
    cut_ins, cut_del, cut_end, per_key = solve_lospre_placement(
        ctx, freq, cut_witness, lcm, mr, assigned.out
    )
    lcm_ins, lcm_del = lcm
    mr_ins, mr_del, mr_end = mr

    candidates = {
        "lcm": (
            {e: ctx.keys_of(m) for e, m in lcm_ins.items() if m},
            ctx.lift_blocks(lcm_del),
            {},
        ),
        "mr": (
            {e: ctx.keys_of(m) for e, m in mr_ins.items() if m},
            ctx.lift_blocks(mr_del),
            ctx.lift_blocks(mr_end),
        ),
        "mincut": (cut_ins, cut_del, cut_end),
    }
    undefined = _undefined_reads(ctx.func, ctx.cfg, assigned)
    costs: dict[str, int] = {}
    rejected: list[str] = []
    priced: dict[tuple, int | None] = {}  # placement -> cost or None
    for name, placement in candidates.items():
        shape = tuple(
            frozenset((site, keys) for site, keys in part.items() if keys)
            for part in placement
        )
        if shape not in priced:
            priced[shape] = _final_cost(ctx, placement, freq, undefined)
        if priced[shape] is None:
            rejected.append(name)
        else:
            costs[name] = priced[shape]
    # Ties prefer the conservative placements: LCM (identical output to
    # ``pre``), then Morel–Renvoise.  Speculate only when it strictly pays.
    strategy = min(
        (name for name in ("lcm", "mr", "mincut") if name in costs),
        key=costs.__getitem__,
    )
    insert_on_edge, delete_in_block, insert_at_end = candidates[strategy]
    if strategy == "mincut":
        witness.insertions.update(cut_witness.insertions)

    apply_placement(
        func,
        ctx.cfg,
        ctx.table,
        insert_on_edge,
        delete_in_block,
        report,
        insert_at_end=insert_at_end,
    )
    record_witness(witness)
    extra = {"rejected": rejected} if rejected else {}
    remarks.emit(
        "placement",
        insertions=report.insertions,
        deletions=report.deletions,
        edges=len(report.inserted_edges),
        profile=freq.source,
        strategy=strategy,
        cost=costs[strategy],
        cost_lcm=costs.get("lcm"),
        cost_mr=costs.get("mr"),
        speculative=sum(
            1 for entry in witness.insertions.values() if entry.speculative
        ),
        strategies=per_key,
        **extra,
    )
    return report


def _final_cost(ctx, placement, freq, undefined) -> int | None:
    """Profile-weighted op count of a candidate's *finished* function.

    Applies the placement to a clone, runs the baseline cleanup suffix
    over it (constant propagation through empty-block removal — the
    same passes the real pipeline runs after lospre), and prices every
    surviving instruction by its block's frequency.  With a measured
    profile this is exactly the dynamic operation count the function
    will exhibit, copies and coalescing included.

    ``None`` when the placed code reads a register, outside
    ``undefined`` (the registers the input already reads undefined),
    at a point where some path leaves it unassigned: that candidate is
    not eligible.
    """
    from repro.analysis.manager import analyses
    from repro.pipeline.levels import BASELINE_SPECS
    from repro.pm.manager import PassManager

    insert_on_edge, delete_in_block, insert_at_end = placement
    trial = ctx.func.clone()
    manager = analyses(trial)
    apply_placement(
        trial,
        manager.cfg(),
        manager.expressions(),
        insert_on_edge,
        delete_in_block,
        PREReport(),
        insert_at_end=insert_at_end,
    )
    # placement only adds to existing blocks: the trial has ctx's CFG
    assigned = solve(definite_assignment_problem(trial), ctx.cfg)
    if not _undefined_reads(trial, ctx.cfg, assigned) <= undefined:
        return None
    PassManager(list(BASELINE_SPECS), verify="off").run_function(trial)
    return _weighted_ops(trial, freq)


def _undefined_reads(func, cfg, assigned) -> set:
    """Registers ``func`` reads where ``assigned`` (its definite
    assignment over ``cfg``) says some path leaves them unassigned."""
    blocks = func.block_map()
    undefined = set()
    for label in cfg.reverse_postorder:
        defined = set(assigned.at_entry(label))
        for inst in blocks[label].instructions:
            undefined.update(use for use in inst.uses() if use not in defined)
            defined.update(inst.defs())
    return undefined


def _weighted_ops(func, freq) -> int:
    """Σ over blocks of frequency × retained op count (φ and nop free,
    mirroring the interpreter's dynamic-count accounting)."""
    total = 0
    for blk in func.blocks:
        weight = freq.block(blk.label)
        if not weight:
            continue
        total += weight * sum(
            1
            for inst in blk.instructions
            if inst.opcode not in (Opcode.PHI, Opcode.NOP)
        )
    return total


def solve_lospre_placement(
    ctx: PREContext, freq, witness, lcm, mr, defined_out
):
    """Per-expression 3-way minimum: min cut vs. LCM vs. Morel–Renvoise.

    ``lcm`` and ``mr`` are the mask placements of
    :func:`solve_lcm_placement` and :func:`solve_mr_placement` over the
    same ``ctx``; ``defined_out`` maps each block to the registers
    definitely assigned at its exit.  Returns ``(insert_on_edge,
    delete_in_block, insert_at_end)`` as per-edge/per-block key
    frozensets (the :func:`apply_placement` input shape) plus a
    strategy histogram, filling ``witness`` with one entry per inserted
    site along the way.  The per-expression picks can disagree on where
    a name is defined, so the result is a candidate that the caller
    must still check for undefined reads.
    """
    lcm_ins, lcm_del = lcm
    mr_ins, mr_del, mr_end = mr

    insert_on_edge: dict[tuple[str, str], set] = {}
    delete_in_block: dict[str, set] = {}
    insert_at_end: dict[str, set] = {}
    chosen = {"lcm": 0, "mincut": 0, "mr": 0}

    order = ctx.cfg.reverse_postorder
    for key in ctx.table.keys:
        bit = ctx.universe.bit(key)
        uses = [label for label in order if ctx.antloc[label] & bit]
        if not uses:
            continue
        retained_cost = sum(freq.block(u) for u in uses)

        cut_edges, cut_deletes, cut_cost = _solve_one_cut(
            ctx, freq, key, bit, uses, defined_out
        )
        lcm_edges = [e for e in ctx.edges if lcm_ins.get(e, 0) & bit]
        lcm_deletes = [u for u in uses if lcm_del.get(u, 0) & bit]
        lcm_cost = sum(freq.edge(*e) for e in lcm_edges) + sum(
            freq.block(u) for u in uses if u not in set(lcm_deletes)
        )
        mr_edges = [e for e in ctx.edges if mr_ins.get(e, 0) & bit]
        mr_ends = [b for b in order if mr_end.get(b, 0) & bit]
        mr_deletes = [u for u in uses if mr_del.get(u, 0) & bit]
        mr_cost = (
            sum(freq.edge(*e) for e in mr_edges)
            + sum(freq.block(b) for b in mr_ends)
            + sum(freq.block(u) for u in uses if u not in set(mr_deletes))
        )

        # ties prefer LCM (identical output to ``pre`` when speculation
        # does not strictly pay), then the cut, then Morel–Renvoise
        if lcm_cost <= cut_cost and lcm_cost <= mr_cost:
            strategy, edges, deletes, ends, cost = (
                "lcm", lcm_edges, lcm_deletes, [], lcm_cost,
            )
        elif cut_cost <= mr_cost:
            strategy, edges, deletes, ends, cost = (
                "mincut", cut_edges, cut_deletes, [], cut_cost,
            )
        else:
            strategy, edges, deletes, ends, cost = (
                "mr", mr_edges, mr_deletes, mr_ends, mr_cost,
            )
        chosen[strategy] += 1

        for i, j in edges:
            insert_on_edge.setdefault((i, j), set()).add(key)
            landing = i if len(ctx.cfg.succs[i]) == 1 else j
            witness.insertions[(landing, key)] = InsertionWitness(
                edge=(i, j),
                speculative=not (ctx.ant_in[j] & bit),
                edge_weight=freq.edge(i, j),
                placed_cost=cost,
                retained_cost=retained_cost,
            )
        for b in ends:
            insert_at_end.setdefault(b, set()).add(key)
            witness.insertions[(b, key)] = InsertionWitness(
                edge=(b, b),
                speculative=not (ctx.ant_out[b] & bit),
                edge_weight=freq.block(b),
                placed_cost=cost,
                retained_cost=retained_cost,
            )
        for u in deletes:
            delete_in_block.setdefault(u, set()).add(key)

    return (
        {edge: frozenset(keys) for edge, keys in insert_on_edge.items()},
        {label: frozenset(keys) for label, keys in delete_in_block.items()},
        {label: frozenset(keys) for label, keys in insert_at_end.items()},
        chosen,
    )


def _solve_one_cut(ctx, freq, key, bit, uses, defined_out):
    """One expression's min-cut placement: ``(edges, deletes, cost)``."""
    operands = _operand_registers(ctx, key)
    safe = speculation_safe(key)
    net = FlowNetwork()

    for u in uses:
        net.add_arc(u, _SINK, freq.block(u), tag=("use", u))
    net.add_arc(_SOURCE, ctx.entry, INFINITY)
    for i, j in ctx.edges:
        if ctx.comp[i] & bit:
            continue  # i regenerates availability; nothing flows out
        src = _SOURCE if (ctx.kill[i] & bit) else i
        if (
            j == ctx.entry
            or (not safe and not (ctx.ant_in[j] & bit))
            or not operands <= defined_out[i]
        ):
            capacity = INFINITY  # insertion illegal here: never cut
        else:
            capacity = freq.edge(i, j)
        net.add_arc(src, j, capacity, tag=("edge", (i, j)))

    cut = net.min_cut(_SOURCE, _SINK, side="sink")
    edges = [tag[1] for tag in cut.tags if tag[0] == "edge"]
    retained = {tag[1] for tag in cut.tags if tag[0] == "use"}
    deletes = [u for u in uses if u not in retained]
    return edges, deletes, cut.value


def _operand_registers(ctx, key) -> frozenset:
    """The source registers the expression reads (for definedness)."""
    representative = ctx.table.occurrences[key][0][1]
    return frozenset(representative.srcs)
