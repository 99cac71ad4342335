"""PRE placement audit: safety and correctness proofs for pre/pre-mr.

The value-graph engine (:mod:`repro.verify.certify.valuegraph`) proves
that a PRE run preserved behaviour; this module checks the *placement
contract* the paper states for the transformation itself, by re-solving
availability and anticipability as the same mask problems the passes
state, with the same solver — on the pass's **input** for the safety
direction and on its **output** for the correctness direction:

* **safety** — every inserted computation of an expression lands where
  the expression was anticipable in the input (``ANTIN ∪ ANTOUT`` of
  the insertion block): no path that never computed the expression is
  made to compute it, so PRE can never slow a path down or introduce a
  trap the original program did not have.  An inserted expression that
  the input never computed *anywhere* is a hard contract violation.
* **correctness** — every deleted computation happens where the
  expression is available in the *output* (``AVIN`` of the deletion
  block, or a surviving computation earlier in the same block): the
  temporary that replaced it provably carries the right value on every
  path.
* **missed redundancy** (the optimality lint) — a computation that is
  both locally anticipable and available on entry in the *output*
  (``ANTLOC ∩ AVIN``) is still fully redundant; PRE should have removed
  it.  Reported as a ``note`` remark, never an error: Morel–Renvoise
  legitimately leaves some of these behind (that gap is the paper's
  motivation for the lazy-code-motion reformulation).

Block-level occurrence counting is the granularity: both sides are
normalized with the passes' own :func:`~repro.passes.pre_common.
normalize_for_pre` (label allocation is deterministic, so the before
copy re-derives exactly the split-block labels the pass created), and
per-block multisets of lexical expression keys are diffed.  A CFG
whose block or edge sets still disagree after that is *inconclusive* —
the pass did something this audit does not model, and the caller falls
back to the value-graph/replay oracles.

Unlike the value-graph engine, this audit **can refute**: its error
diagnostics mean the pass broke the placement contract, not merely
that a proof failed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.verify.diagnostics import Diagnostic

#: Pass base names this audit understands (both PRE equation systems).
PRE_PASSES = frozenset({"pre", "pre-mr"})

#: Pass base names audited with the speculative contract: insertions
#: may land where the expression is *not* anticipated, provided the
#: pass deposited a profile witness justifying the site (see
#: :mod:`repro.profile.witness`).
SPECULATIVE_PRE_PASSES = frozenset({"lospre"})


@dataclass
class PlacementAudit:
    """The outcome of one placement audit.

    ``verdict`` is ``"clean"`` (every insertion proved safe and every
    deletion proved correct), ``"refuted"`` (the pass violated the
    placement contract; ``diagnostics`` holds errors), or
    ``"inconclusive"`` (the output is not block-comparable with the
    input).  ``remarks`` carries the missed-redundancy notes, which are
    advisory in every verdict.
    """

    verdict: str
    reason: str
    checks: int = 0
    diagnostics: list = field(default_factory=list)
    remarks: list = field(default_factory=list)


def _occurrences(func: Function) -> dict[str, Counter]:
    return {
        blk.label: Counter(
            inst.expr_key()
            for inst in blk.instructions
            if inst.is_expression
        )
        for blk in func.blocks
    }


def audit_placement(
    before: Function, after: Function, *, speculative: bool = False
) -> PlacementAudit:
    """Audit one PRE run; neither argument is mutated.

    With ``speculative=True`` (lospre runs) an insertion that fails the
    anticipability check is not refuted outright: the audit re-derives
    the static speculation conditions itself — the expression cannot
    trap, and is *partially* anticipable at the landing block — and
    then demands the pass's profile witness show the placement is
    never-worse under the frequencies it used (placed cost ≤ the cost
    of leaving every use in place).  A missing witness entry, a
    trapping opcode, a useless site, or unprofitable arithmetic still
    refutes.
    """
    from repro.passes.pre_common import prepare_pre
    from repro.verify.checkers.defuse import undefined_uses

    try:
        normalized_before = before.clone()
        normalized_after = after.clone()
        ctx_before = prepare_pre(normalized_before)
        ctx_after = prepare_pre(normalized_after)
    except ValueError as error:  # φ-bearing input: not a PRE boundary
        return PlacementAudit("inconclusive", f"not PRE-normalizable: {error}")
    if ctx_before is None and ctx_after is None:
        return PlacementAudit("clean", "no expressions on either side")
    if ctx_before is None or ctx_after is None:
        return PlacementAudit(
            "inconclusive", "expressions exist on only one side"
        )

    labels_before = {blk.label for blk in normalized_before.blocks}
    labels_after = {blk.label for blk in normalized_after.blocks}
    if labels_before != labels_after or set(ctx_before.edges) != set(
        ctx_after.edges
    ):
        return PlacementAudit(
            "inconclusive",
            "the normalized CFGs are not block-comparable "
            "(the pass reshaped control flow)",
        )

    def fail(message, label, severity="error"):
        return Diagnostic(
            checker="certify-placement",
            severity=severity,
            function=after.name,
            message=message,
            block=label,
        )

    universe_before = set(ctx_before.table.keys)
    occurrences_before = _occurrences(normalized_before)
    occurrences_after = _occurrences(normalized_after)
    diagnostics: list[Diagnostic] = []
    remarks: list[Diagnostic] = []
    checks = 0
    pant_mask = None  # partial anticipability, solved on first demand

    for label in sorted(labels_before):
        counts_before = occurrences_before[label]
        counts_after = occurrences_after[label]
        # sorted: ``Opcode`` hashes by identity, so set order (and with
        # it the order of the diagnostics and notes) would follow memory
        # addresses from run to run
        for key in sorted(set(counts_before) | set(counts_after), key=repr):
            diff = counts_after[key] - counts_before[key]
            if diff > 0:
                checks += 1
                if key not in universe_before:
                    diagnostics.append(fail(
                        f"inserted expression {key} is never computed "
                        f"anywhere in the input program",
                        label,
                    ))
                    continue
                anticipable = ctx_before.keys_of(
                    ctx_before.ant_in.get(label, 0)
                    | ctx_before.ant_out.get(label, 0)
                )
                if key in anticipable:
                    continue
                if speculative:
                    if pant_mask is None:
                        pant_mask = _solve_partial_anticipability(ctx_before)
                    problem = _speculation_objection(
                        ctx_before, pant_mask, after.name, label, key
                    )
                    if problem is None:
                        remarks.append(fail(
                            f"speculative insertion: {key} in {label} is "
                            f"not anticipated but trap-free, partially "
                            f"anticipable, and profile-justified",
                            label,
                            severity="note",
                        ))
                        continue
                    diagnostics.append(fail(
                        f"unjustified speculative insertion of {key} in "
                        f"{label}: {problem}",
                        label,
                    ))
                    continue
                diagnostics.append(fail(
                    f"unsafe insertion: {key} placed in {label} where "
                    f"it is not anticipable in the input — some path "
                    f"through {label} never computed it",
                    label,
                ))
            elif diff < 0:
                checks += 1
                available = ctx_after.keys_of(ctx_after.avail_in.get(label, 0))
                if key not in available and not counts_after[key]:
                    diagnostics.append(fail(
                        f"incorrect deletion: {key} removed from {label} "
                        f"where it is not available in the output — the "
                        f"replacing temporary is undefined on some path",
                        label,
                    ))

    # differential def-use: an insertion the pass forgot (or a deleted
    # definition it left dangling) shows up as uses of undefined
    # registers that the input did not have
    if not any(True for _ in undefined_uses(normalized_before)):
        for issue in undefined_uses(normalized_after):
            checks += 1
            diagnostics.append(fail(
                f"the transformed code reads {issue.register!r} in "
                f"{issue.block} before any definition reaches it "
                f"(the input had no such read)",
                issue.block,
            ))

    # the optimality lint: surviving fully-redundant computations
    for label in sorted(labels_after):
        redundant = ctx_after.keys_of(
            ctx_after.antloc.get(label, 0) & ctx_after.avail_in.get(label, 0)
        )
        for key in sorted(redundant, key=repr):
            remarks.append(fail(
                f"missed redundancy: {key} in {label} is available on "
                f"every path into the block and still recomputed",
                label,
                severity="note",
            ))

    if diagnostics:
        return PlacementAudit(
            "refuted",
            f"{len(diagnostics)} placement-contract violations",
            checks=checks,
            diagnostics=diagnostics,
            remarks=remarks,
        )
    return PlacementAudit(
        "clean",
        f"{checks} placement facts certified",
        checks=checks,
        remarks=remarks,
    )


def _solve_partial_anticipability(ctx) -> dict[str, int]:
    """PANT masks per block: entry-side ∪ exit-side partial anticipability.

    The union-meet dual of the anticipability solve in
    :func:`repro.passes.pre_common.build_context`: an expression is
    partially anticipable where *some* kill-free path still reaches a
    use.  Speculating anywhere else computes a value no path wants —
    refutable waste even when the profile calls it free.
    """
    from repro.dataflow.framework import DataflowProblem, solve

    pant = solve(
        DataflowProblem(
            direction="backward",
            meet="union",
            universe=ctx.full,
            gen=ctx.antloc,
            kill=ctx.kill,
        ),
        ctx.cfg,
    )
    return {lbl: pant.inn[lbl] | pant.out[lbl] for lbl in pant.inn}


def _speculation_objection(
    ctx, pant_mask: dict[str, int], function: str, label: str, key
) -> str | None:
    """Why a non-anticipated insertion is *not* acceptable (None = it is).

    Static conditions (trap safety, partial anticipability) are
    re-derived from the pass input; only the frequency arithmetic is
    taken from the witness — and even that must balance.
    """
    from repro.passes.lospre import speculation_safe
    from repro.profile.witness import lookup_witness

    if not speculation_safe(key):
        return (
            f"{key[0].name.lower()} may trap at run time; trapping "
            f"expressions may never be speculated, whatever the profile"
        )
    if not (pant_mask.get(label, 0) & ctx.universe.bit(key)):
        return (
            "no kill-free path from the insertion reaches any use "
            "(not partially anticipable)"
        )
    witness = lookup_witness(function)
    if witness is None:
        return "the pass deposited no speculation witness"
    entry = witness.insertions.get((label, key))
    if entry is None:
        return "the speculation witness has no entry for this site"
    if not entry.speculative:
        return (
            "the witness claims this site is conservative, but the "
            "expression is not anticipable there"
        )
    if not entry.justified:
        return (
            f"unprofitable under the pass's own profile: placed cost "
            f"{entry.placed_cost} exceeds the {entry.retained_cost} of "
            f"leaving every use in place"
        )
    return None
