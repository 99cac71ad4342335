"""Per-pass translation validation (the equivalence oracle).

After a pass runs, the only ground truth for "did it preserve the
program?" is execution.  The validator replays the function **before**
and **after** the pass through :mod:`repro.interp` on deterministic
generated inputs and diffs everything observable — return value and
final memory — reporting any divergence as an ``error``
:class:`~repro.verify.diagnostics.Diagnostic` that
:class:`~repro.pm.manager.PassManager` turns into a
``PassVerificationError`` naming the culprit pass.

Two layers keep it fast and sound:

* **value-numbering pre-check**: both versions are printed with
  registers and labels α-renamed to their order of first occurrence
  and hashed; equal hashes mean the pass was the identity up to
  renaming, so interpretation is skipped entirely (the common case —
  most passes change nothing on most functions);
* **outcome discipline**: a case only *votes* when the reference run
  completes cleanly.  If the pre-pass function traps (division by
  zero, out-of-window address) or exceeds the step budget on some
  generated input, that case is inconclusive — passes are allowed to
  remove a dead trapping instruction, so trap-for-trap equality would
  flag legal transformations.  If the reference completes and the
  transformed version traps or differs, that is a real miscompile.

Input generation is deterministic (SHA-256-seeded, no global RNG):
scalar parameters draw small integers from per-case ranges, and
parameters that flow into an address operand (a transitive
contributes-to-address taint) receive the base of a pre-initialized
memory window written at 4-byte stride, which satisfies both 4- and
8-byte element accesses.  Calls to routines outside the function are
stubbed with a deterministic pure function of (callee, arguments), so
single-function validation still exercises call-bearing code.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.interp.machine import Interpreter, InterpreterError
from repro.interp.memory import Memory, MemoryError_
from repro.ir.function import Function, Module
from repro.ir.opcodes import Opcode
from repro.ir.printer import print_function
from repro.verify.diagnostics import Diagnostic

#: Scalar ranges per generated case: (low, span).  Case 0 is small and
#: positive (loop bounds behave), later cases widen and cross zero.
_SCALAR_RANGES = ((1, 4), (2, 6), (-3, 10))

#: Size of the memory window behind every address-like parameter.
_WINDOW_CELLS = 96
_WINDOW_STRIDE = 4

#: Default interpretation budget per run; exceeding it makes the case
#: inconclusive rather than failing it.
_MAX_STEPS = 250_000


# -- the fast path: α-renaming-invariant fingerprints -------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def canonical_text(func: Function) -> str:
    """The printed function with names α-renamed by first occurrence.

    Registers and block labels are rewritten to ``%0, %1, ...`` in
    order of first appearance, so two functions that differ only in
    naming print identically.  Opcodes and the function name are left
    alone (the name is not part of the fingerprint's job; the caller
    compares before/after of the *same* function).
    """
    keywords = {"function", func.name} | {op.value for op in Opcode}
    mapping: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        token = match.group(0)
        if token in keywords:
            return token
        if token not in mapping:
            mapping[token] = f"%{len(mapping)}"
        return mapping[token]

    return _TOKEN.sub(rename, print_function(func))


def semantic_fingerprint(func: Function) -> str:
    """SHA-256 of the α-renamed printing — the equivalence pre-check."""
    return hashlib.sha256(canonical_text(func).encode()).hexdigest()


class IRSnapshot:
    """One IR state, frozen for the semantic verifiers.

    Wraps a function nothing may mutate any more — the pass manager
    hands it a fresh :meth:`~repro.ir.function.Function.clone` — and
    derives its α-fingerprint and the value graph's SSA-normalized form
    on first use, once.  The pass manager hands pass *i*'s after-state
    on as pass *i+1*'s before-state, so each state between two passes
    is copied, printed, hashed and converted to SSA once, however many
    verdicts read it.  :func:`validate_translation` and the certifier's
    entry points wrap a plain :class:`Function` argument (:meth:`of`).
    """

    __slots__ = ("func", "_fingerprint", "_ssa")

    def __init__(self, func: Function) -> None:
        self.func = func
        self._fingerprint: Optional[str] = None
        self._ssa: Optional[Function] = None

    @classmethod
    def of(cls, state: Function | IRSnapshot) -> IRSnapshot:
        """``state`` itself, or a snapshot wrapping the plain function."""
        return state if isinstance(state, IRSnapshot) else cls(state)

    @property
    def fingerprint(self) -> str:
        """:func:`semantic_fingerprint` of the state, computed once."""
        if self._fingerprint is None:
            self._fingerprint = semantic_fingerprint(self.func)
        return self._fingerprint

    def ssa_form(self) -> Function:
        """The state in SSA, CFG-normalized for the value graph; built once.

        See :func:`repro.verify.certify.valuegraph.prepare`.
        """
        if self._ssa is None:
            from repro.verify.certify.valuegraph import prepare

            self._ssa = prepare(self.func)
        return self._ssa


# -- deterministic input generation -------------------------------------------


def _digest_int(*parts: object) -> int:
    """A stable non-negative integer derived from ``parts``."""
    text = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def address_like_params(func: Function) -> set[str]:
    """Parameters that (transitively) feed an address operand.

    Seeds the taint set with every ``LOAD`` address and ``STORE``
    address operand, then closes backward over definitions: if a
    tainted register is defined by an instruction, all of that
    instruction's sources are tainted too.  Over-approximates (an index
    that contributes to ``base + i*8`` is tainted along with the base),
    but only *parameters* in the final set get memory windows, and an
    extra window merely wastes a few cells.
    """
    tainted: set[str] = set()
    for inst in func.instructions():
        if inst.opcode is Opcode.LOAD:
            tainted.add(inst.srcs[0])
        elif inst.opcode is Opcode.STORE:
            tainted.add(inst.srcs[1])
    changed = True
    while changed:
        changed = False
        for inst in func.instructions():
            if inst.target in tainted:
                for src in inst.srcs:
                    if src not in tainted:
                        tainted.add(src)
                        changed = True
    return tainted & set(func.params)


@dataclass
class InputCase:
    """One deterministic input vector for a function's parameters."""

    order: list[str] = field(default_factory=list)  # parameter order
    scalars: dict[str, int] = field(default_factory=dict)
    windows: dict[str, list[int]] = field(default_factory=dict)  # param -> cells

    def materialize(self) -> tuple[list, Memory]:
        """Fresh (args, memory) for one interpretation run."""
        memory = Memory()
        args: list = []
        for param in self.order:
            if param in self.windows:
                cells = self.windows[param]
                base = memory.allocate(len(cells) * _WINDOW_STRIDE, align=8)
                for offset, value in enumerate(cells):
                    memory.write(base + offset * _WINDOW_STRIDE, value)
                args.append(base)
            else:
                args.append(self.scalars[param])
        return args, memory

    def describe(self) -> str:
        parts = []
        for param in self.order:
            if param in self.windows:
                head = ", ".join(str(v) for v in self.windows[param][:4])
                parts.append(f"{param}=[{head}, ...]")
            else:
                parts.append(f"{param}={self.scalars[param]}")
        return "(" + ", ".join(parts) + ")"


def generate_cases(func: Function, cases: int = len(_SCALAR_RANGES)) -> list[InputCase]:
    """Deterministic input vectors for ``func`` (same function → same cases)."""
    windowed = address_like_params(func)
    result = []
    for case_index in range(cases):
        low, span = _SCALAR_RANGES[case_index % len(_SCALAR_RANGES)]
        case = InputCase(order=list(func.params))
        for param in func.params:
            if param in windowed:
                case.windows[param] = [
                    _digest_int(func.name, case_index, param, offset) % 17 - 8
                    for offset in range(_WINDOW_CELLS)
                ]
            else:
                case.scalars[param] = (
                    low + _digest_int(func.name, case_index, param) % span
                )
        result.append(case)
    return result


# -- interpretation with stubbed externals ------------------------------------


class _StubInterpreter(Interpreter):
    """Interpreter that answers unknown calls deterministically.

    The validator sees one function at a time; calls to routines not in
    the (single-function) module are replaced by a pure function of the
    callee name and argument values, so both versions of the function
    observe identical call results.
    """

    def _call(self, name, args, memory, depth):
        if name in self.module:
            return super()._call(name, args, memory, depth)
        if depth > 200:
            raise InterpreterError(f"call depth exceeded calling {name!r}")
        return _digest_int("stub-call", name, tuple(args)) % 201 - 100


def _outcome(func: Function, case: InputCase, max_steps: int) -> tuple:
    """Run one case; ``("ok", value, memory)`` or ``("trap", kind)``."""
    args, memory = case.materialize()
    interp = _StubInterpreter(Module([func]), max_steps=max_steps)
    try:
        result = interp.run(func.name, args, memory)
    except (InterpreterError, MemoryError_) as trap:
        return ("trap", type(trap).__name__)
    return ("ok", result.value, tuple(sorted(memory.snapshot().items())))


def _summarize(outcome: tuple) -> str:
    if outcome[0] == "trap":
        return f"trap ({outcome[1]})"
    _, value, cells = outcome
    return f"value={value!r}, {len(cells)} memory cells"


# -- the validator -------------------------------------------------------------


def validate_translation(
    before: Function | IRSnapshot,
    after: Function | IRSnapshot,
    *,
    cases: Optional[list[InputCase]] = None,
    max_steps: int = _MAX_STEPS,
) -> list[Diagnostic]:
    """Check that ``after`` is observationally equivalent to ``before``.

    Returns an empty list when the functions are equivalent as far as
    the oracle can tell (including "every case was inconclusive"), and
    one ``transval`` error diagnostic for the first diverging case.
    Either side may be an :class:`IRSnapshot`, whose fingerprint is
    reused.
    """
    before, after = IRSnapshot.of(before), IRSnapshot.of(after)
    if before.fingerprint == after.fingerprint:
        return []
    before, after = before.func, after.func
    from repro.verify.lint import is_backend_function

    if is_backend_function(before) or is_backend_function(after):
        # machine-level IR: the interpreter cannot execute lds/sts, so
        # every case would be a reference trap — inconclusive by the
        # outcome discipline.  The backend is gated by the cycle
        # simulator (docs/BACKEND.md), not by replay.
        return []
    if cases is None:
        cases = generate_cases(before)
    conclusive = 0
    for index, case in enumerate(cases):
        reference = _outcome(before, case, max_steps)
        if reference[0] != "ok":
            continue  # the pre-pass code itself traps here: inconclusive
        conclusive += 1
        observed = _outcome(after, case, max_steps)
        if observed != reference:
            return [
                Diagnostic(
                    checker="transval",
                    severity="error",
                    function=after.name,
                    message=(
                        f"observable behaviour changed on input "
                        f"#{index} {case.describe()}: reference "
                        f"{_summarize(reference)}, transformed "
                        f"{_summarize(observed)}"
                    ),
                )
            ]
    return []
