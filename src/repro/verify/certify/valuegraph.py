"""Value-graph translation validation: static equivalence proofs.

Where :mod:`repro.verify.transval` *executes* a function before and
after a pass on generated inputs, this engine *proves* observable
equivalence symbolically and never runs anything.  Both versions are
rewritten into SSA, canonically normalized, their CFG skeletons are
aligned, and one joint optimistic value-numbering problem
(Simpson-style RPO iteration — the precise φ-aware fixpoint that
subsumes AWZ split-refinement) is solved over the union of both
functions' instructions.  Canonicalization inside the value numbering
gives the proof its reach:

* constant folding through :func:`repro.passes.fold.fold_operation`;
* copy forwarding and φ-collapse (a φ whose live operands agree *is*
  its operand — the rule split-refinement can never apply, and the one
  that lets a PRE insertion-φ match the original expression);
* a bounded multivariate polynomial normal form over ``add``/``sub``/
  ``neg``/``mul`` (subsumes commutativity, reassociation and
  distribution);
* flattened, deduplicated operand chains for ``min``/``max``/``and``/
  ``or`` and pair-cancelled chains for ``xor``; comparison
  canonicalization via ``SWAPPED_COMPARISON``;
* loads and calls carry a *memory token* — an abstract name for the
  memory state at that point — so a load is congruent only to loads of
  the same address under a provably identical effect history.

The *obligations* that make a proof: for every pair of matched blocks
the side-effect sequences (store value/address, call callee/arguments)
must be congruent in order, matched conditional branches must test
congruent conditions, and matched returns must return congruent
values.  All obligations discharged → ``proved``.  Anything else →
``inconclusive`` (never "refuted": a failed static proof is absence of
evidence, and the PassManager falls back to interpreter replay).  The
first failed obligation is reported as a concrete counterexample.

Soundness is inductive over matched execution paths: the entry states
are equal, every matched effect with congruent inputs produces equal
states (which is exactly what the effect obligations establish, and
congruent branch conditions keep the two executions on corresponding
paths), and a control-flow merge of pointwise-equal states is equal —
so naming memory states by *matched-pair* identity, never by
side-local labels, is sound.  The arithmetic normal forms model
arithmetic as exact; that is the same license the reassociation and
distribution passes themselves assume (floating-point rounding
differences are out of scope for this oracle, as they are for the
interpreter oracle's small generated inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cfg.graph import ControlFlowGraph
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import (
    COMMUTATIVE,
    COMPARISONS,
    PURE,
    SWAPPED_COMPARISON,
    Opcode,
)
from repro.passes.fold import fold_operation
from repro.verify.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.transval import IRSnapshot

#: Fixpoint bound for the joint value numbering; exceeded → inconclusive.
_MAX_ROUNDS = 60

#: Caps for the polynomial normal form; exceeded → plain syntactic key.
_POLY_MAX_TERMS = 24
_POLY_MAX_DEGREE = 6

#: Opcodes a *trivial* (resolvable-through) block may contain besides
#: its ``jmp``: pure computations and loads — nothing observable.
_CHAIN_SAFE = (PURE | {Opcode.LOAD}) - {Opcode.PHI}

_POLY_OPS = {Opcode.ADD, Opcode.SUB, Opcode.NEG, Opcode.MUL}
_CHAIN_OPS = {Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR, Opcode.XOR}
_EFFECT_OPS = (Opcode.STORE, Opcode.CALL)


@dataclass
class EquivalenceProof:
    """The outcome of one static equivalence attempt."""

    proved: bool
    reason: str
    obligations: int = 0
    rounds: int = 0
    diagnostics: list = field(default_factory=list)


# -- CFG normalization ---------------------------------------------------------
#
# Both sides get the same semantics-preserving rewrites before matching,
# so shape-only differences (a pass merged two straight-line blocks,
# folded a constant branch, left a split edge behind) do not defeat the
# alignment: fold cbr-on-constant to jmp (pruning φ inputs on the dead
# edge), turn single-operand φs into copies, and merge block pairs
# joined by their only edge.


def _normalize_cfg(func: Function) -> None:
    """Canonicalize the (SSA) CFG in place; see the comment above."""
    for _ in range(2 * len(func.blocks) + 8):
        changed = False
        func.remove_unreachable_blocks()
        blocks = func.block_map()
        defs = {
            inst.target: inst
            for blk in func.blocks
            for inst in blk.instructions
            if inst.target
        }
        # cbr on a known constant is a jmp
        for blk in func.blocks:
            term = blk.terminator
            if term is None or term.opcode is not Opcode.CBR:
                continue
            definition = defs.get(term.srcs[0])
            if definition is None or definition.opcode is not Opcode.LOADI:
                continue
            taken, dropped = term.labels
            if not definition.imm:
                taken, dropped = dropped, taken
            blk.instructions[-1] = Instruction(Opcode.JMP, labels=[taken])
            if dropped != taken and dropped in blocks:
                blocks[dropped].drop_phi_inputs((blk.label,))
            changed = True
        if changed:
            continue  # reachability may have changed; restart the sweep
        # φs with one (remaining) operand are copies
        for blk in func.blocks:
            for index, inst in enumerate(blk.instructions):
                if inst.is_phi and len(inst.srcs) == 1:
                    blk.instructions[index] = Instruction(
                        Opcode.COPY, target=inst.target, srcs=[inst.srcs[0]]
                    )
                    changed = True
        # merge a -> b when the edge is a's only exit and b's only entry
        preds = func.predecessor_map()
        for blk in func.blocks:
            term = blk.terminator
            if term is None or term.opcode is not Opcode.JMP:
                continue
            target = term.labels[0]
            if (
                target == blk.label
                or target == func.entry.label
                or preds.get(target, []) != [blk.label]
            ):
                continue
            victim = func.block_map()[target]
            if any(inst.is_phi for inst in victim.instructions):
                continue  # becomes a copy on the next sweep
            blk.instructions = blk.instructions[:-1] + victim.instructions
            func.blocks.remove(victim)
            # φs downstream name their incoming edges by predecessor
            # label; the victim's successors must now see this block
            for other in func.blocks:
                for inst in other.instructions:
                    if inst.is_phi and victim.label in inst.phi_labels:
                        inst.phi_labels = [
                            blk.label if lbl == victim.label else lbl
                            for lbl in inst.phi_labels
                        ]
            changed = True
            break  # the block list changed; recompute the maps
        if not changed:
            return


def prepare(func: Function) -> Function:
    """A copy of ``func`` in SSA with its CFG normalized; ``func`` is untouched.

    Each side of a proof is matched and value-numbered in this form.
    :meth:`~repro.verify.transval.IRSnapshot.ssa_form` keeps it, so a
    state that is one proof's ``after`` and the next one's ``before`` is
    converted once.  The proof only reads it.
    """
    from repro.ssa import to_ssa

    copy = func.clone()
    to_ssa(copy)
    _normalize_cfg(copy)
    return copy


# -- CFG skeleton matching -----------------------------------------------------


class _MatchError(Exception):
    pass


class _Side:
    """One function's share of the joint problem."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.blocks = func.block_map()
        self.pair_of: dict[str, int] = {}  # matched block label -> pair id
        self.chain_origins: dict[str, set] = {}  # chain label -> origin pairs
        # (target label, immediate pred label) -> {(pair, edge index), ...}
        self.phi_origins: dict[tuple, set] = {}
        self.effects: dict[int, int] = {}  # pair -> store/call count
        self.mem_in: dict[int, tuple] = {}

    def is_trivial(self, label: str) -> bool:
        blk = self.blocks[label]
        term = blk.terminator
        if term is None or term.opcode is not Opcode.JMP:
            return False
        return all(inst.opcode in _CHAIN_SAFE for inst in blk.instructions[:-1])

    def resolve(self, label: str, origin: Optional[int], pred: str):
        """Follow trivial blocks from ``pred``; ``(solid label, last pred)``.

        Records each traversed trivial block's *origin* — the matched
        pair branching into the chain, or ``None`` from the entry — for
        the memory tokens.  A cycle of trivial blocks (an empty
        infinite loop) yields ``(None, pred)``.
        """
        seen = set()
        while self.is_trivial(label):
            if label in seen:
                return None, pred
            seen.add(label)
            self.chain_origins.setdefault(label, set()).add(origin)
            pred = label
            label = self.blocks[label].terminator.labels[0]
        return label, pred


def _effective_successors(side: _Side, label: str):
    """``(kind, solid successor labels, [(target, immediate pred, k)])``.

    Chains of trivial blocks are looked through.  A ``cbr`` whose two
    arms resolve to the same solid block is shape-matched as a ``jmp``
    (one successor) — but its two edges keep distinct indices, so φs in
    the target still distinguish the arms, and the branch-condition
    obligation still applies when both sides branch.
    """
    blk = side.blocks[label]
    term = blk.terminator
    if term is None:
        raise _MatchError(f"block {label} has no terminator")
    kind = term.opcode
    if kind is Opcode.RET:
        return "ret", [], []
    pair = side.pair_of[label]
    origins = []
    targets = []
    for index, target in enumerate(blk.successor_labels()):
        solid, pred = side.resolve(target, pair, label)
        if solid is None:
            raise _MatchError(f"cycle of empty blocks behind {label}")
        origins.append((solid, pred, index))
        targets.append(solid)
    if kind is Opcode.CBR and targets[0] == targets[1]:
        return "jmp", targets[:1], origins
    return kind.value, targets, origins


def _match_skeletons(a: _Side, b: _Side) -> list[tuple[str, str]]:
    """Pair up the solid blocks of both sides; raises ``_MatchError``."""
    pairs: list[tuple[str, str]] = []

    def match(la: str, lb: str) -> Optional[int]:
        pa, pb = a.pair_of.get(la), b.pair_of.get(lb)
        if pa is not None or pb is not None:
            if pa != pb:
                raise _MatchError(
                    f"control structure diverged: {la} vs {lb} were "
                    f"matched inconsistently"
                )
            return None
        pair = len(pairs)
        pairs.append((la, lb))
        a.pair_of[la] = pair
        b.pair_of[lb] = pair
        return pair

    entry_a, pred_a = a.resolve(a.func.entry.label, None, "<entry>")
    entry_b, pred_b = b.resolve(b.func.entry.label, None, "<entry>")
    if entry_a is None or entry_b is None:
        raise _MatchError("the entry resolves to a cycle of empty blocks")
    # the function-entry edge is a real φ origin (shared across sides)
    a.phi_origins.setdefault((entry_a, pred_a), set()).add(("entry", 0))
    b.phi_origins.setdefault((entry_b, pred_b), set()).add(("entry", 0))
    worklist = [match(entry_a, entry_b)]
    while worklist:
        pair = worklist.pop()
        la, lb = pairs[pair]
        kind_a, targets_a, origins_a = _effective_successors(a, la)
        kind_b, targets_b, origins_b = _effective_successors(b, lb)
        if kind_a != kind_b or len(targets_a) != len(targets_b):
            raise _MatchError(
                f"terminator shape diverged at matched blocks {la}/{lb}: "
                f"{kind_a}×{len(targets_a)} vs {kind_b}×{len(targets_b)}"
            )
        for ta, tb in zip(targets_a, targets_b):
            new = match(ta, tb)
            if new is not None:
                worklist.append(new)
        for side, origins in ((a, origins_a), (b, origins_b)):
            for target, pred, index in origins:
                side.phi_origins.setdefault((target, pred), set()).add(
                    (pair, index)
                )
    return pairs


# -- memory tokens -------------------------------------------------------------


def _pair_out_token(side: _Side, pair: Optional[int]) -> tuple:
    if pair is None:
        return ("entry",)
    count = side.effects[pair]
    return ("eff", pair, count) if count else side.mem_in[pair]


def _solve_memory_tokens(
    side: _Side, count: int, pair_preds, entry_pair: int
) -> None:
    """Optimistically name the memory state entering each matched pair.

    A pair whose (non-⊤) predecessors agree inherits their token — this
    is what lets a store-free loop keep the preheader's memory state,
    so a load hoisted out of it stays congruent with the original.
    Disagreement names the merge ``("join", pair)``.  Tokens only ever
    mention matched-pair ids (never side-local labels), so equal tokens
    across sides really do denote equal states by the path-matching
    induction in the module docstring.
    """
    mem_in: list[Optional[tuple]] = [None] * count
    for _ in range(2 * count + 8):
        changed = False
        for pair in range(count):
            incoming = set()
            for pred in pair_preds[pair]:
                if mem_in[pred] is not None:
                    incoming.add(
                        ("eff", pred, side.effects[pred])
                        if side.effects[pred]
                        else mem_in[pred]
                    )
            if pair == entry_pair:
                incoming.add(("entry",))
            if not incoming:
                new = None
            elif len(incoming) == 1:
                new = next(iter(incoming))
            else:
                new = ("join", pair)
            if new != mem_in[pair]:
                mem_in[pair] = new
                changed = True
        if not changed:
            break
    else:  # did not converge: the pessimistic per-pair naming is sound
        mem_in = [
            ("entry",) if pair == entry_pair else ("join", pair)
            for pair in range(count)
        ]
    side.mem_in = {
        pair: token if token is not None else ("join", pair)
        for pair, token in enumerate(mem_in)
    }


def _block_token(side: _Side, label: str, effects_before: int) -> tuple:
    pair = side.pair_of.get(label)
    if pair is not None:
        if effects_before:
            return ("eff", pair, effects_before)
        return side.mem_in[pair]
    # a trivial chain block: it has no effects of its own, so its state
    # is the out-state of its origin pair(s)
    outs = {
        _pair_out_token(side, origin)
        for origin in side.chain_origins.get(label, {None})
    }
    if len(outs) == 1:
        return next(iter(outs))
    return ("chainjoin", tuple(sorted(outs, key=repr)))


# -- the joint value numbering -------------------------------------------------


class _ValueTable:
    """Key→representative table; the key map resets every round.

    A value is a *stable representative*, never a positional id:

    * constants, polynomials and operand chains are represented by
      their canonical forms directly (round- and side-independent);
    * a structural key (op/φ/load/call) seen for the first time in a
      round is represented by its defining instruction's side-tagged
      name ``("n", side, target)``, which is the same tuple in every
      round.

    Stability is what makes the per-round reset sound *and* complete: a
    φ's back-edge operand reads the previous round's value, and with
    first-occurrence ids that value collides with whatever happens to
    be interned at the same position this round — transient bogus
    merges whose fallout permanently splits congruent accumulator φs
    (optimistic refinement never re-merges).  With representatives,
    cross-round reads mean the same thing in every round.  Cross-side
    congruence still comes from table hits: the second side's identical
    key inherits the first side's representative.

    ``canon`` and the const/poly/chain registries persist across rounds
    (a canonical form's meaning never changes, and a ⊤-preserved value
    from the previous round must still decode this round).
    """

    def __init__(self) -> None:
        self.table: dict = {}
        self.canon: dict[tuple, tuple] = {}
        self.const_of: dict[tuple, object] = {}
        self.poly_of: dict[tuple, dict] = {}
        self.chain_of: dict[tuple, tuple] = {}

    def new_round(self) -> None:
        self.table = {}

    def intern(self, key: tuple, owner: tuple) -> tuple:
        rep = self.table.get(key)
        if rep is None:
            rep = owner
            self.table[key] = rep
            self.canon[rep] = key
        return rep

    def const(self, value) -> tuple:
        # keyed by repr so 2 and 2.0 stay distinct classes (their
        # downstream behaviour can differ even though 2 == 2.0)
        rep = ("const", repr(value))
        self.const_of.setdefault(rep, value)
        return rep

    def poly(self, terms: dict) -> tuple:
        rep = ("poly", tuple(sorted(terms.items(), key=repr)))
        self.poly_of.setdefault(rep, dict(terms))
        return rep

    def chain(self, opcode: Opcode, const, leaves: tuple) -> tuple:
        rep = ("chain", opcode.value, repr(const), leaves)
        self.chain_of.setdefault(rep, (opcode, const, leaves))
        return rep

    def as_poly(self, rep: tuple) -> dict:
        if rep in self.const_of:
            return {(): self.const_of[rep]}
        if rep in self.poly_of:
            return self.poly_of[rep]
        return {(rep,): 1}

    def describe(self, rep: Optional[tuple]) -> str:
        if rep is None:
            return "⊤ (undetermined)"
        kind = rep[0]
        if kind == "const":
            return f"const {rep[1]}"
        if kind == "param":
            return f"param#{rep[1]}"
        if kind == "opaque":
            return f"opaque {rep[2]}"
        if kind == "n":
            key = self.canon.get(rep)
            tag = "after" if rep[1] else "before"
            if key is None:
                return f"{rep[2]} ({tag})"
            return f"{rep[2]} ({tag} {key[0]})"
        return kind


def _poly_accumulate(acc: dict, terms: dict, factor) -> None:
    for mono, coeff in terms.items():
        acc[mono] = acc.get(mono, 0) + coeff * factor


def _poly_multiply(p: dict, q: dict) -> Optional[dict]:
    out: dict = {}
    for mono_p, coeff_p in p.items():
        for mono_q, coeff_q in q.items():
            mono = tuple(sorted(mono_p + mono_q, key=repr))
            if len(mono) > _POLY_MAX_DEGREE:
                return None
            out[mono] = out.get(mono, 0) + coeff_p * coeff_q
            if len(out) > _POLY_MAX_TERMS:
                return None
    return out


class _Prover:
    """One joint optimistic RPO value-numbering problem.

    Canonicalizing an instruction is split in two.  The *form* is a
    pure step: ``(value, None)`` for a finished value (a constant,
    polynomial, chain or operand), ``(None, key)`` for a structural key
    to intern under the instruction's own name, or ``(None, None)`` for
    ⊤.  Interning is the second step, which :meth:`run` takes in order,
    every round.  Only forms are memoized (:meth:`_memo_form`), and the
    memo lives and dies with this prover.
    """

    def __init__(self, a: _Side, b: _Side, pairs) -> None:
        self.sides = (a, b)
        self.pairs = pairs
        self.values = _ValueTable()
        self.vn: tuple[dict, dict] = ({}, {})
        self.rounds = 0
        self._last: list = []  # position -> (operand values, form)
        self._by_input: dict = {}  # structural input -> form

    def val(self, side_index: int, name: str) -> Optional[tuple]:
        return self.vn[side_index].get(name)

    # -- canonicalization ------------------------------------------------------

    def _phi_form(self, side_index, inst, label, operands) -> tuple:
        side = self.sides[side_index]
        self_rep = ("n", side_index, inst.target)
        entries = set()
        for src, pred, value in zip(inst.srcs, inst.phi_labels, operands):
            origins = side.phi_origins.get((label, pred))
            if not origins:
                continue  # the edge was pruned or is unreachable
            if value is None:
                continue  # optimistic: ⊤ operands don't constrain the φ
            if src == inst.target or value == self_rep:
                # the operand routes the φ's own value through the loop
                # (only identity-representative equality counts — an
                # operand merely *equal* to a collapsed previous
                # estimate is a real constraint, and dropping it
                # oscillates)
                continue
            for origin in origins:
                entries.add((origin, value))
        if not entries:
            return None, None
        distinct = {value for _, value in entries}
        if len(distinct) == 1:
            return next(iter(distinct)), None
        pair = side.pair_of[label]
        return None, ("phi", pair, tuple(sorted(entries, key=repr)))

    def _canon_chain(self, opcode: Opcode, operands) -> tuple:
        values = self.values
        leaves: list[tuple] = []
        consts: list = []
        stack = list(operands)
        while stack:
            vn = stack.pop()
            chain = values.chain_of.get(vn)
            if chain is not None and chain[0] is opcode:
                _, const, sub = chain
                if const is not None:
                    consts.append(const)
                stack.extend(sub)
            elif vn in values.const_of:
                consts.append(values.const_of[vn])
            else:
                leaves.append(vn)
        folded = None
        while consts:
            top = consts.pop()
            if folded is None:
                folded = top
            else:
                merged = fold_operation(opcode, [folded, top])
                if merged is None:  # unfoldable: keep the leaf as-is
                    leaves.append(values.const(top))
                else:
                    folded = merged
        if opcode is Opcode.XOR:
            counts: dict[tuple, int] = {}
            for leaf in leaves:
                counts[leaf] = counts.get(leaf, 0) + 1
            leaves = [leaf for leaf, n in counts.items() if n % 2]
            if folded == 0:
                folded = None
        else:
            leaves = list(dict.fromkeys(leaves))  # idempotent dedupe
            if opcode is Opcode.OR and folded == 0:
                folded = None
            if opcode is Opcode.AND and folded is not None and folded == 0:
                return values.const(folded)
        if not leaves:
            return values.const(folded if folded is not None else 0)
        if len(leaves) == 1 and folded is None:
            return leaves[0]
        return values.chain(opcode, folded, tuple(sorted(leaves, key=repr)))

    def _canon_poly(self, opcode: Opcode, operands) -> Optional[tuple]:
        values = self.values
        if opcode is Opcode.NEG:
            acc: dict = {}
            _poly_accumulate(acc, values.as_poly(operands[0]), -1)
        elif opcode is Opcode.MUL:
            acc = _poly_multiply(
                values.as_poly(operands[0]), values.as_poly(operands[1])
            )
            if acc is None:
                return None  # over the caps: fall back to a syntactic key
        else:  # ADD / SUB
            acc = dict(values.as_poly(operands[0]))
            sign = -1 if opcode is Opcode.SUB else 1
            _poly_accumulate(acc, values.as_poly(operands[1]), sign)
        acc = {mono: coeff for mono, coeff in acc.items() if coeff != 0}
        if len(acc) > _POLY_MAX_TERMS:
            return None
        if not acc:
            return values.const(0)
        if set(acc) == {()}:
            return values.const(acc[()])
        if len(acc) == 1:
            (mono, coeff), = acc.items()
            if len(mono) == 1 and coeff == 1:
                return mono[0]
        return values.poly(acc)

    def _expression_form(self, inst, operands) -> tuple:
        values = self.values
        opcode = inst.opcode
        consts = [values.const_of[v] for v in operands if v in values.const_of]
        if len(consts) == len(operands):
            folded = fold_operation(opcode, consts, callee=inst.callee)
            if folded is not None:
                return values.const(folded), None
        if opcode in _POLY_OPS:
            poly = self._canon_poly(opcode, operands)
            if poly is not None:
                return poly, None
        if opcode in _CHAIN_OPS:
            return self._canon_chain(opcode, operands), None
        if opcode in (Opcode.SHL, Opcode.SHR) and (
            operands[1] in values.const_of
            and values.const_of[operands[1]] == 0
        ):
            return operands[0], None
        if opcode is Opcode.NOT:
            inner = values.canon.get(operands[0])
            if inner is not None and inner[:2] == ("op", Opcode.NOT.value):
                return inner[2][0], None
        if opcode in COMPARISONS:
            if operands[0] == operands[1]:
                reflexive = opcode in (Opcode.CMPEQ, Opcode.CMPLE, Opcode.CMPGE)
                return values.const(1 if reflexive else 0), None
            swapped = SWAPPED_COMPARISON[opcode]
            forward = (opcode.value, tuple(operands))
            backward = (swapped.value, (operands[1], operands[0]))
            return None, ("op",) + min(forward, backward, key=repr)
        if opcode in COMMUTATIVE:
            operands = sorted(operands, key=repr)
        if opcode is Opcode.INTRIN:
            return None, ("intrin", inst.callee, tuple(operands))
        return None, ("op", opcode.value, tuple(operands))

    def _form(self, side_index, inst, label, token, operands) -> tuple:
        """The pure step for ``inst`` given its operand values.

        ``token`` is the memory token of a ``load`` or ``call`` (else
        ``None``).  Reads no value-table state but the persistent
        registries, except that ``not`` reads ``values.canon``.
        """
        opcode = inst.opcode
        if opcode is Opcode.PHI:
            return self._phi_form(side_index, inst, label, operands)
        if opcode is Opcode.LOADI:
            return self.values.const(inst.imm), None
        if None in operands:
            return None, None
        if opcode is Opcode.COPY:
            return operands[0], None
        if opcode is Opcode.LOAD:
            return None, ("load", operands[0], token)
        if opcode is Opcode.CALL:
            return None, ("call", inst.callee, operands, token)
        return self._expression_form(inst, operands)

    def _memo_form(self, position, side_index, inst, label, token, operands):
        """:meth:`_form`, reused where its inputs repeat.

        A form is reused when the instruction at ``position`` sees the
        operand values it saw in an earlier round, or when another
        instruction (usually its twin on the other side) had the same
        opcode, callee, operand values and memory token (values compare
        with ``==``, the equality the table keys on).  A φ's form
        embeds its pair and edge origins and a ``loadi``'s its
        immediate, so only their own position reuses them.  ``not``
        reads the key its operand was interned under, which a later
        round can rebind, so it is never memoized.
        """
        opcode = inst.opcode
        if opcode is Opcode.NOT:
            return self._form(side_index, inst, label, token, operands)
        last = self._last[position]
        if last is not None and last[0] == operands:
            return last[1]
        if opcode is Opcode.PHI or opcode is Opcode.LOADI:
            form = self._form(side_index, inst, label, token, operands)
        else:
            structure = (opcode, inst.callee, operands, token)
            form = self._by_input.get(structure)
            if form is None:
                form = self._form(side_index, inst, label, token, operands)
                self._by_input[structure] = form
        self._last[position] = (operands, form)
        return form

    # -- iteration -------------------------------------------------------------

    def run(self) -> bool:
        """Iterate to a fixpoint; ``False`` when the bound is exceeded.

        The key→representative table is **rebuilt from scratch every
        round** (Simpson's RPO algorithm): a structural key's value on
        a miss is the defining instruction's own side-tagged name,
        which is the same in every round, so once the congruence
        partition stops changing every value reproduces exactly and
        the sweep reports no change.  A persistent table cannot
        terminate here — a loop φ's key embeds values that depend on
        the φ itself, so fresh entries would be minted forever.
        Back-edge operands read the previous round's values; because
        representatives are stable names and canonical forms (never
        positional ids), a previous-round value means the same thing
        this round, across both sides.

        What repeats between rounds and sides is the arithmetic of a
        form — polynomial products, ``repr``-sorted chains, φ entry
        sets — so forms are memoized (:meth:`_memo_form`).  Every key
        is still interned, in the same order, into the fresh table
        every round, and a form depends on nothing the table's reset
        changes, so representatives, rounds and obligations come out
        exactly as without the memo.
        """
        order = []
        leaders: list[tuple[int, object]] = []  # (side, param/opaque seeds)
        for side_index, side in enumerate(self.sides):
            seeds = []
            for index, param in enumerate(side.func.params):
                seeds.append((param, ("param", index)))
            defined = set(side.func.params)
            for blk in side.func.blocks:
                for inst in blk.instructions:
                    defined.update(inst.defs())
            for blk in side.func.blocks:
                for inst in blk.instructions:
                    for use in inst.uses():
                        # a name with no definition anywhere (possible
                        # on fuzz CFGs) is opaque and side-local
                        if use not in defined and all(
                            name != use for name, _ in seeds
                        ):
                            seeds.append((use, ("opaque", side_index, use)))
            leaders.append((side_index, seeds))
            for label in ControlFlowGraph(side.func).reverse_postorder:
                effects = 0
                for inst in side.blocks[label].instructions:
                    if inst.target:
                        token = None
                        if inst.opcode in (Opcode.LOAD, Opcode.CALL):
                            token = _block_token(side, label, effects)
                        owner = ("n", side_index, inst.target)
                        order.append((side_index, inst, label, token, owner))
                    if inst.opcode in _EFFECT_OPS:
                        effects += 1
        self._last = [None] * len(order)
        values = self.values
        for round_index in range(_MAX_ROUNDS):
            self.rounds = round_index + 1
            values.new_round()
            changed = False
            for side_index, seeds in leaders:
                for name, key in seeds:
                    # param/opaque keys are self-describing values
                    if self.vn[side_index].get(name) != key:
                        self.vn[side_index][name] = key
                        changed = True
            for position, (side_index, inst, label, token, owner) in enumerate(
                order
            ):
                vn = self.vn[side_index]
                operands = tuple(map(vn.get, inst.srcs))
                value, key = self._memo_form(
                    position, side_index, inst, label, token, operands
                )
                if key is not None:
                    value = values.intern(key, owner)
                if value is None:
                    continue  # ⊤ keeps any previous optimistic estimate
                if vn.get(inst.target) != value:
                    vn[inst.target] = value
                    changed = True
            if not changed:
                return True
        return False


# -- obligations ---------------------------------------------------------------


def _effect_signature(prover: _Prover, side_index: int, label: str):
    """``[(comparison key, operand vns, instruction), ...]`` in order."""
    side = prover.sides[side_index]
    signature = []
    for inst in side.blocks[label].instructions:
        if inst.opcode is Opcode.STORE:
            value = prover.val(side_index, inst.srcs[0])
            address = prover.val(side_index, inst.srcs[1])
            signature.append((("store", value, address), (value, address), inst))
        elif inst.opcode is Opcode.CALL:
            operands = tuple(prover.val(side_index, src) for src in inst.srcs)
            signature.append((("call", inst.callee, operands), operands, inst))
    return signature


def _show_effect(values: _ValueTable, key) -> str:
    if key[0] == "store":
        return f"store {values.describe(key[1])} to {values.describe(key[2])}"
    return (
        f"call {key[1]}("
        + ", ".join(values.describe(v) for v in key[2])
        + ")"
    )


def _check_obligations(prover: _Prover, function_name: str):
    """``(obligation count, first-failure Diagnostic or None)``."""
    a, b = prover.sides
    values = prover.values
    count = 0

    def fail(message, label, inst=None):
        from repro.ir.printer import print_instruction

        return Diagnostic(
            checker="certify",
            severity="note",
            function=function_name,
            message=message,
            block=label,
            instruction=print_instruction(inst) if inst is not None else None,
        )

    for la, lb in prover.pairs:
        sig_a = _effect_signature(prover, 0, la)
        sig_b = _effect_signature(prover, 1, lb)
        if len(sig_a) != len(sig_b):
            return count, fail(
                f"effect sequences differ at matched blocks {la}/{lb}: "
                f"{len(sig_a)} vs {len(sig_b)} stores/calls",
                lb,
            )
        for (key_a, vals_a, _ia), (key_b, vals_b, inst_b) in zip(sig_a, sig_b):
            count += 1
            undetermined = None in vals_a or None in vals_b
            if key_a != key_b or undetermined:
                return count, fail(
                    f"side-effect obligation failed at {la}/{lb}: before "
                    f"does {_show_effect(values, key_a)}, after does "
                    f"{_show_effect(values, key_b)}",
                    lb,
                    inst=inst_b,
                )
        term_a = a.blocks[la].terminator
        term_b = b.blocks[lb].terminator
        if term_a.opcode is Opcode.RET and term_b.opcode is Opcode.RET:
            count += 1
            va = prover.val(0, term_a.srcs[0]) if term_a.srcs else "void"
            vb = prover.val(1, term_b.srcs[0]) if term_b.srcs else "void"
            if va != vb or va is None:
                return count, fail(
                    f"return values not congruent at {la}/{lb}: "
                    f"{values.describe(None if va == 'void' else va)} vs "
                    f"{values.describe(None if vb == 'void' else vb)}",
                    lb,
                    inst=term_b,
                )
        if term_a.opcode is Opcode.CBR and term_b.opcode is Opcode.CBR:
            count += 1
            va = prover.val(0, term_a.srcs[0])
            vb = prover.val(1, term_b.srcs[0])
            if va != vb or va is None:
                return count, fail(
                    f"branch conditions not congruent at {la}/{lb}: "
                    f"{values.describe(va)} vs {values.describe(vb)}",
                    lb,
                    inst=term_b,
                )
    return count, None


# -- the entry point -----------------------------------------------------------


def prove_equivalence(
    before: Function | IRSnapshot,
    after: Function | IRSnapshot,
    *,
    skip_fingerprint: bool = False,
) -> EquivalenceProof:
    """Statically prove that ``after`` preserves ``before``'s behaviour.

    Neither argument is mutated (everything runs on private copies).
    Either side may be an :class:`~repro.verify.transval.IRSnapshot`,
    whose fingerprint, SSA form and backend check are reused (and filled
    in on first use).  ``proved=False`` never means "refuted" — only
    that no proof was found; callers fall back to
    :func:`repro.verify.transval.validate_translation` for a dynamic
    verdict.  ``skip_fingerprint`` is for callers (``certify_pass``)
    that already compared the sides' semantic fingerprints and found
    them different.
    """
    from repro.verify.transval import IRSnapshot

    before, after = IRSnapshot.of(before), IRSnapshot.of(after)
    if not skip_fingerprint and before.fingerprint == after.fingerprint:
        return EquivalenceProof(True, "alpha-equivalent printings")
    if before.is_backend or after.is_backend:
        return EquivalenceProof(
            False, "machine-level IR (gated by the cycle simulator instead)"
        )
    if len(before.func.params) != len(after.func.params):
        return EquivalenceProof(False, "parameter lists differ")

    try:
        side_a = _Side(before.ssa_form())
        side_b = _Side(after.ssa_form())
    except Exception as error:  # noqa: BLE001 — any failure is inconclusive
        return EquivalenceProof(False, f"SSA normalization failed: {error}")

    try:
        pairs = _match_skeletons(side_a, side_b)
    except _MatchError as error:
        return EquivalenceProof(False, f"CFG skeletons do not align: {error}")
    except Exception as error:  # noqa: BLE001 — malformed IR: inconclusive
        return EquivalenceProof(False, f"matching failed: {error}")

    # the matched-pair graph (shared across sides by construction):
    # which pairs feed which, for the memory-token solve
    pair_preds: list[set[int]] = [set() for _ in pairs]
    for side in (side_a, side_b):
        for (target, _pred), origins in side.phi_origins.items():
            target_pair = side.pair_of.get(target)
            if target_pair is None:
                continue
            for origin_pair, _index in origins:
                if isinstance(origin_pair, int):  # the entry edge has none
                    pair_preds[target_pair].add(origin_pair)
    for side, column in ((side_a, 0), (side_b, 1)):
        for pair, labels in enumerate(pairs):
            blk = side.blocks[labels[column]]
            side.effects[pair] = sum(
                1 for inst in blk.instructions if inst.opcode in _EFFECT_OPS
            )
    entry_label, _ = side_a.resolve(side_a.func.entry.label, None, "<entry>")
    entry_pair = side_a.pair_of[entry_label]
    _solve_memory_tokens(side_a, len(pairs), pair_preds, entry_pair)
    _solve_memory_tokens(side_b, len(pairs), pair_preds, entry_pair)

    prover = _Prover(side_a, side_b, pairs)
    if not prover.run():
        return EquivalenceProof(
            False,
            f"value numbering did not converge in {_MAX_ROUNDS} rounds",
            rounds=prover.rounds,
        )
    count, failure = _check_obligations(prover, after.func.name)
    if failure is not None:
        return EquivalenceProof(
            False,
            "unproved obligation (see the counterexample note)",
            obligations=count,
            rounds=prover.rounds,
            diagnostics=[failure],
        )
    return EquivalenceProof(
        True,
        f"{count} obligations discharged over {len(pairs)} matched blocks",
        obligations=count,
        rounds=prover.rounds,
    )
