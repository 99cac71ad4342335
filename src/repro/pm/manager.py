"""The pass manager: named sequences, timing, verification, caching.

This is the layer the paper's Unix-filter optimizer never had.  A
:class:`PassManager` owns one pass sequence (a registry name like
``"distribution"`` or an explicit spec list), and per function:

* checks the content-addressed :class:`~repro.pm.cache.PassCache`;
* runs each pass inside a :func:`~repro.pm.remarks.remark_context` so
  the pass's :func:`repro.pm.remarks.emit` calls land in the manager's
  collector;
* times each pass and records IR-size deltas (instructions, blocks,
  registers) into a :class:`ManagerStats`;
* optionally verifies the function after every pass or once at the end,
  at three strengths — structural validation (``verify="each"`` /
  ``"final"``), the semantic lint checkers (``"lint"`` /
  ``"lint:final"``), or the interpreting translation validator
  (``"transval"`` / ``"transval:final"``).  Policies compose with
  commas (``"lint,transval:final"``); see :func:`parse_verify`.

Verification failures raise :class:`PassVerificationError` carrying the
structured :class:`~repro.verify.diagnostics.Diagnostic` records and
naming the guilty pass; every diagnostic (fatal or not) is also routed
to the remark collector as a ``"diagnostic"`` event.

**Sandboxed execution** (``on_error=``): with the default ``"raise"``,
a pass exception or verify refutation propagates and aborts the
compile.  Under ``"rollback"``, every pass runs against a recoverable
:meth:`~repro.ir.function.Function.clone` snapshot — a failure restores
the pre-pass IR, records an incident (when an ``incidents`` recorder is
attached), and the pipeline *continues* with the remaining passes.
Under ``"degrade"``, the first failure restores the pipeline-entry IR
and raises :class:`DegradationRequired`, which the degradation ladder
(:mod:`repro.triage.containment`) turns into a retry at a lower
optimization level.  ``opt_bisect_limit`` skips every pass application
past the limit (LLVM's ``--opt-bisect-limit``), which is what lets
:mod:`repro.triage.bisect` pin the first bad application by binary
search; ``chaos`` is the fault-injection hook of
:mod:`repro.triage.chaos`.  Managers with a chaos hook or a bisect
limit never touch the cache — their runs are deliberately not pure
functions of (text, fingerprint).

``jobs > 1`` fans out per function through
:mod:`repro.pm.parallel`; output is bit-identical to serial because
every pass is function-local and results are merged in module order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.analysis.manager import analyses
from repro.ir.function import Function, Module
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.validate import IRValidationError, validate_function
from repro.pm.cache import PassCache
from repro.pm.registry import (
    PassSpec,
    get_pass,
    get_sequence,
    normalize_spec,
    resolve_spec,
    sequence_fingerprint,
    spec_label,
)
from repro.pm.remarks import Remark, RemarkCollector, remark_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.transval import IRSnapshot

#: The single-token policies ``parse_verify`` accepts (comma-combinable).
VERIFY_POLICIES = (
    "off",
    "each",
    "final",
    "lint",
    "lint:each",
    "lint:final",
    "transval",
    "transval:each",
    "transval:final",
    "certify",
    "certify:each",
    "certify:final",
)

#: Backward-compatible alias for the pre-lint structural modes.
VERIFY_MODES = ("each", "final", "off")

#: Passes whose output depends on the profile store, not just on the
#: input text and the sequence fingerprint — sequences containing one
#: bypass the :class:`~repro.pm.cache.PassCache` entirely.
PROFILE_DEPENDENT_PASSES = frozenset({"lospre"})

#: The failure policies a manager accepts (see the module docstring).
ON_ERROR_POLICIES = ("raise", "rollback", "degrade")


@dataclass(frozen=True)
class VerifyPlan:
    """What to verify, and when — the parse of a ``verify=`` spec."""

    structural_each: bool = False
    structural_final: bool = False
    lint_each: bool = False
    lint_final: bool = False
    transval_each: bool = False
    transval_final: bool = False
    certify_each: bool = False
    certify_final: bool = False

    @property
    def check_each(self) -> bool:
        """Structural or lint checking after every pass."""
        return self.structural_each or self.lint_each

    @property
    def check_final(self) -> bool:
        return self.structural_final or self.lint_final

    @property
    def snapshot_each(self) -> bool:
        """Policies that compare every pass's input with its output."""
        return self.transval_each or self.certify_each

    @property
    def snapshot_final(self) -> bool:
        return self.transval_final or self.certify_final

    @property
    def off(self) -> bool:
        return self == VerifyPlan()


_VERIFY_TOKENS = {
    "each": {"structural_each": True},
    "final": {"structural_final": True},
    "lint": {"lint_each": True},
    "lint:each": {"lint_each": True},
    "lint:final": {"lint_final": True},
    "transval": {"transval_each": True},
    "transval:each": {"transval_each": True},
    "transval:final": {"transval_final": True},
    "certify": {"certify_each": True},
    "certify:each": {"certify_each": True},
    "certify:final": {"certify_final": True},
}


def parse_verify(spec: str) -> VerifyPlan:
    """Parse a ``verify=`` spec into a :class:`VerifyPlan`.

    A spec is a comma-separated list of policies: ``off`` (alone),
    ``each``/``final`` (structural validation), ``lint``/``lint:final``
    (the :mod:`repro.verify` checkers; bare ``lint`` means after every
    pass, so a broken pass is *named*), ``transval``/``transval:final``
    (interpret-and-diff translation validation), and ``certify``/
    ``certify:final`` (the static certifier of
    :mod:`repro.verify.certify`, which proves equivalence without
    executing and falls back to ``transval`` replay only on
    inconclusive attempts).  ``"lint,certify:final"`` lints after every
    pass and certifies the whole sequence once at the end.
    """
    tokens = [token.strip() for token in str(spec).split(",") if token.strip()]
    if not tokens:
        raise ValueError(
            f"empty verify spec; expected a comma-separated subset of {VERIFY_POLICIES}"
        )
    if "off" in tokens and len(tokens) > 1:
        raise ValueError(f"verify 'off' cannot be combined with {tokens!r}")
    flags: dict = {}
    for token in tokens:
        if token == "off":
            continue
        if token not in _VERIFY_TOKENS:
            raise ValueError(
                f"unknown verify policy {token!r}; expected a comma-separated "
                f"subset of {VERIFY_POLICIES}"
            )
        flags.update(_VERIFY_TOKENS[token])
    return VerifyPlan(**flags)


class PassVerificationError(Exception):
    """A pass broke the function (caught by any ``verify=`` policy).

    Carries the structured :class:`~repro.verify.diagnostics.Diagnostic`
    records that justified the failure — a single ``structure``
    diagnostic for structural verification, the ``error``-severity lint
    findings for ``verify="lint"``, or the ``transval`` divergence
    report for ``verify="transval"``.
    """

    def __init__(
        self,
        pass_label: str,
        function: str,
        diagnostics: Sequence = (),
        *,
        sequence: Optional[str] = None,
    ):
        where = f"pass {pass_label!r}"
        if sequence:
            where += f" (sequence {sequence!r})"
        detail = "; ".join(d.format() for d in diagnostics) or "verification failed"
        super().__init__(f"{where} broke function {function!r}: {detail}")
        self.pass_label = pass_label
        self.function = function
        self.sequence = sequence
        self.diagnostics = list(diagnostics)

    def __reduce__(self):
        # default Exception pickling would replay __init__ with the
        # formatted message as pass_label; process executors need this.
        return (
            _rebuild_verification_error,
            (self.pass_label, self.function, self.diagnostics, self.sequence),
        )


def _rebuild_verification_error(pass_label, function, diagnostics, sequence):
    return PassVerificationError(
        pass_label, function, diagnostics, sequence=sequence
    )


class DegradationRequired(Exception):
    """A sandboxed run under ``on_error="degrade"`` hit a failure.

    The function has already been restored to its pipeline-entry IR
    when this is raised; the caller (the degradation ladder in
    :mod:`repro.triage.containment`) retries at a lower level.
    """

    def __init__(
        self,
        pass_label: str,
        function: str,
        incident_id: Optional[str] = None,
        error_type: str = "",
    ):
        super().__init__(
            f"pass {pass_label!r} failed on {function!r} "
            f"({error_type or 'error'}); degradation required"
        )
        self.pass_label = pass_label
        self.function = function
        self.incident_id = incident_id
        self.error_type = error_type


@dataclass
class PassStat:
    """Accumulated cost and effect of one pass across functions."""

    label: str
    runs: int = 0
    seconds: float = 0.0
    delta_instructions: int = 0
    delta_blocks: int = 0
    delta_registers: int = 0

    def record(self, seconds: float, di: int, db: int, dr: int) -> None:
        self.runs += 1
        self.seconds += seconds
        self.delta_instructions += di
        self.delta_blocks += db
        self.delta_registers += dr


@dataclass
class ManagerStats:
    """Per-pass totals plus cache counters for one or more managers.

    Several managers may share one instance (the Table 1 sweep builds
    four — one per level — all writing here) so ``format()`` shows the
    whole run.
    """

    passes: dict = field(default_factory=dict)  # label -> PassStat
    functions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0

    def stat(self, label: str) -> PassStat:
        if label not in self.passes:
            self.passes[label] = PassStat(label)
        return self.passes[label]

    def merge(self, other: "ManagerStats") -> None:
        for label, stat in other.passes.items():
            mine = self.stat(label)
            mine.runs += stat.runs
            mine.seconds += stat.seconds
            mine.delta_instructions += stat.delta_instructions
            mine.delta_blocks += stat.delta_blocks
            mine.delta_registers += stat.delta_registers
        self.functions += other.functions
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.seconds += other.seconds

    def to_jsonable(self) -> dict:
        return {
            "functions": self.functions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "passes": [
                {
                    "pass": stat.label,
                    "runs": stat.runs,
                    "seconds": stat.seconds,
                    "delta_instructions": stat.delta_instructions,
                    "delta_blocks": stat.delta_blocks,
                    "delta_registers": stat.delta_registers,
                }
                for stat in self.passes.values()
            ],
        }

    @classmethod
    def from_jsonable(cls, record: dict) -> "ManagerStats":
        stats = cls(
            functions=record["functions"],
            cache_hits=record["cache_hits"],
            cache_misses=record["cache_misses"],
            seconds=record["seconds"],
        )
        for entry in record["passes"]:
            stat = stats.stat(entry["pass"])
            stat.runs = entry["runs"]
            stat.seconds = entry["seconds"]
            stat.delta_instructions = entry["delta_instructions"]
            stat.delta_blocks = entry["delta_blocks"]
            stat.delta_registers = entry["delta_registers"]
        return stats

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_jsonable(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format(self) -> str:
        """A human-readable per-pass cost table (``--stats`` output)."""
        lines = [
            f"{'pass':<34} {'runs':>6} {'ms':>10} {'Δinstr':>8} "
            f"{'Δblocks':>8} {'Δregs':>8}"
        ]
        for label, stat in sorted(
            self.passes.items(), key=lambda item: -item[1].seconds
        ):
            lines.append(
                f"{label:<34} {stat.runs:>6} {stat.seconds * 1e3:>10.2f} "
                f"{stat.delta_instructions:>+8} {stat.delta_blocks:>+8} "
                f"{stat.delta_registers:>+8}"
            )
        lines.append(
            f"{self.functions} function-compilations in "
            f"{self.seconds * 1e3:.2f} ms; cache {self.cache_hits} hits / "
            f"{self.cache_misses} misses"
        )
        return "\n".join(lines)


def _sizes(func: Function) -> tuple[int, int, int]:
    return func.static_count(), len(func.blocks), len(func.all_registers())


def _adopt(func: Function, parsed: Function) -> None:
    """Replace ``func``'s body with ``parsed``'s (cache-hit replay)."""
    func.params = parsed.params
    func.blocks = parsed.blocks
    func.sync_counters()


class PassManager:
    """Runs a named (or literal) pass sequence over functions and modules."""

    def __init__(
        self,
        sequence: Union[str, Sequence[PassSpec]],
        *,
        verify: str = "off",
        cache: Optional[PassCache] = None,
        collector: Optional[RemarkCollector] = None,
        stats: Optional[ManagerStats] = None,
        jobs: int = 1,
        executor: str = "thread",
        on_error: str = "raise",
        incidents=None,
        incident_context: Optional[dict] = None,
        opt_bisect_limit: Optional[int] = None,
        chaos=None,
    ) -> None:
        self.verify_plan = parse_verify(verify)
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {on_error!r}; "
                f"expected one of {ON_ERROR_POLICIES}"
            )
        if isinstance(sequence, str):
            self.sequence_name: Optional[str] = sequence
            self.specs = get_sequence(sequence)
        else:
            self.sequence_name = None
            self.specs = [normalize_spec(spec) for spec in sequence]
        self.labels = [spec_label(spec) for spec in self.specs]
        self.fingerprint = sequence_fingerprint(self.specs)
        self.verify = verify
        self.cache = cache
        self.collector = collector
        self.stats = stats if stats is not None else ManagerStats()
        self.jobs = max(1, int(jobs))
        self.executor = executor
        self.on_error = on_error
        self.incidents = incidents  #: duck-typed: .record(dict) -> id
        self.incident_context = dict(incident_context or {})
        self.opt_bisect_limit = (
            None if opt_bisect_limit is None else max(0, int(opt_bisect_limit))
        )
        self.chaos = chaos  #: duck-typed: .maybe_fail / .maybe_corrupt
        self.incident_ids: list[str] = []
        self._applications = 0  #: opt-bisect counter across run_* calls
        self._resolved = [resolve_spec(spec) for spec in self.specs]
        self._preserves = [
            get_pass(normalize_spec(spec)[0]).preserves for spec in self.specs
        ]
        # profile-guided passes read state (the profile store) that the
        # sequence fingerprint cannot capture, so their output for one
        # input text is not a pure function of (text, fingerprint);
        # caching such runs would replay stale placements.  Chaos and
        # opt-bisect runs are impure the same way (and a cache hit
        # would skip the passes the injection/bisect must exercise).
        self._cacheable = (
            chaos is None
            and self.opt_bisect_limit is None
            and all(
                name not in PROFILE_DEPENDENT_PASSES
                for name, _ in self.specs
            )
        )

    # -- single function ---------------------------------------------------------

    def run_function(self, func: Function) -> Function:
        """Optimize one function (cache-aware, in place)."""
        use_cache = self.cache is not None and self._cacheable
        if use_cache:
            source_text = print_function(func)
            cached = self.cache.lookup(source_text, self.fingerprint)
            if cached is not None:
                _adopt(func, parse_function(cached))
                analyses(func).invalidate_all()
                self.stats.cache_hits += 1
                self.stats.functions += 1
                if self.collector is not None:
                    self.collector.add(
                        Remark("pm", func.name, "cache-hit", {})
                    )
                return func
            self.stats.cache_misses += 1
        contained = self._run_passes(func, self.stats, self.collector)
        # a run with rolled-back passes is not the pure (text, sequence)
        # image the cache is keyed on — storing it would poison replays
        if use_cache and not contained:
            self.cache.store(source_text, self.fingerprint, print_function(func))
        return func

    def _run_passes(
        self,
        func: Function,
        stats: ManagerStats,
        collector: Optional[RemarkCollector],
    ) -> int:
        """The uncached pipeline: every pass, instrumented.

        Returns the number of *contained* events (rolled-back passes
        plus bisect-skipped applications) — zero means the run is the
        pure image of (input, sequence) and is safe to cache.

        Under ``transval``/``certify`` each IR state is snapshotted once
        (:class:`~repro.verify.transval.IRSnapshot`): ``state`` is the
        last verified one, and pass *i*'s after-state becomes pass
        *i+1*'s before-state.  It describes ``func`` at the top of every
        iteration — a rolled-back pass restores ``func`` to it and a
        bisect-skipped one leaves both alone — so it doubles as the
        sandbox's pre-pass restore point.
        """
        from repro.verify.transval import IRSnapshot

        started = time.perf_counter()
        plan = self.verify_plan
        manager = analyses(func)
        sandbox = self.on_error != "raise"
        chaos = self.chaos
        entry: Optional[IRSnapshot] = (
            IRSnapshot(func.clone())
            if (sandbox or plan.snapshot_each or plan.snapshot_final)
            else None
        )
        state = entry if plan.snapshot_each else None
        first_application = self._applications
        contained = 0
        for index, (label, pass_fn, preserves) in enumerate(zip(
            self.labels, self._resolved, self._preserves
        )):
            self._applications += 1
            application = self._applications
            if (
                self.opt_bisect_limit is not None
                and application > self.opt_bisect_limit
            ):
                contained += 1
                if collector is not None:
                    collector.add(Remark(
                        "pm", func.name, "bisect-skip",
                        {"pass": label, "application": application},
                    ))
                continue
            snapshot = None
            if sandbox:
                snapshot = state.func if state is not None else func.clone()
            before = _sizes(func)
            chaos_fired: Optional[dict] = None
            t0 = time.perf_counter()
            try:
                if chaos is not None:
                    chaos.maybe_fail(func.name, label, application)
                with remark_context(collector, label, func.name):
                    pass_fn(func)
                if chaos is not None:
                    chaos_fired = chaos.maybe_corrupt(func, label, application)
                elapsed = time.perf_counter() - t0
                # declared invalidation: body analyses the pass did not
                # promise to preserve are dropped; shape analyses
                # revalidate against their stamps on next access
                manager.after_pass(preserves)
                after = _sizes(func)
                stats.stat(label).record(
                    elapsed,
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2],
                )
                if plan.check_each:
                    self._check(func, label, collector, lint=plan.lint_each)
                if state is not None:
                    # taken after any chaos corruption, so that is
                    # certified too; adopted only once it verifies
                    state = self._verify_semantics(
                        state, func, label, collector,
                        certify=plan.certify_each,
                    )
            except Exception as error:  # noqa: BLE001 — policy boundary
                if not sandbox:
                    raise  # on_error="raise": byte-identical legacy path
                contained += 1
                self._contain(
                    func, snapshot, manager, error,
                    label=label,
                    index=index,
                    application=application - first_application,
                    entry=entry,
                    chaos_fired=chaos_fired,
                    collector=collector,
                )
        final_label = self.labels[-1] if self.labels else "<empty>"
        try:
            if plan.check_final:
                self._check(func, final_label, collector, lint=plan.lint_final)
            if plan.snapshot_final:
                self._verify_semantics(
                    entry, func, final_label, collector,
                    certify=plan.certify_final,
                )
        except Exception as error:  # noqa: BLE001 — policy boundary
            if not sandbox:
                raise
            # the whole sequence is suspect: fall back to the entry IR
            # (which the caller already accepted as valid input)
            contained += 1
            self._contain(
                func, entry.func, manager, error,
                label=final_label,
                index=len(self.labels) - 1,
                application=self._applications - first_application,
                entry=entry,
                chaos_fired=None,
                collector=collector,
            )
        stats.functions += 1
        stats.seconds += time.perf_counter() - started
        return contained

    def _contain(
        self,
        func: Function,
        snapshot: Function,
        manager,
        error: Exception,
        *,
        label: str,
        index: int,
        application: int,
        entry: IRSnapshot,
        chaos_fired: Optional[dict],
        collector: Optional[RemarkCollector],
    ) -> None:
        """Roll ``func`` back and record the incident (sandbox modes).

        Under ``rollback`` the pre-pass ``snapshot`` is restored and the
        pipeline continues; under ``degrade`` the pipeline-entry IR is
        restored and :class:`DegradationRequired` aborts the run.
        ``func`` adopts a copy: the snapshots are verifier states and
        must never share blocks with live IR.
        """
        restore = entry.func if self.on_error == "degrade" else snapshot
        _adopt(func, restore.clone())
        manager.invalidate_all()
        incident_id = self._record_incident(
            func, error,
            label=label,
            index=index,
            application=application,
            entry=entry,
            chaos_fired=chaos_fired,
        )
        if collector is not None:
            collector.add(Remark(
                label, func.name, "contained",
                {
                    "error": type(error).__name__,
                    "policy": self.on_error,
                    "incident": incident_id,
                },
            ))
        if self.on_error == "degrade":
            raise DegradationRequired(
                label, func.name, incident_id, type(error).__name__
            ) from error

    def _record_incident(
        self,
        func: Function,
        error: Exception,
        *,
        label: str,
        index: int,
        application: int,
        entry: IRSnapshot,
        chaos_fired: Optional[dict],
    ) -> Optional[str]:
        """Persist one contained failure to the attached recorder."""
        is_verification = isinstance(error, PassVerificationError)
        chaos_descriptor = chaos_fired
        if chaos_descriptor is None:
            chaos_descriptor = getattr(error, "descriptor", None) or None
        record = {
            "function": func.name,
            "input_ir": print_function(entry.func),
            "specs": [[name, options] for name, options in self.specs],
            "sequence": self.sequence_name,
            "verify": self.verify,
            "pass_label": label,
            "pass_index": index,
            "application": application,
            "error_kind": "verification" if is_verification else "exception",
            "error_type": type(error).__name__,
            "message": str(error),
            "diagnostics": [
                d.as_dict() for d in getattr(error, "diagnostics", [])
            ],
            "chaos": chaos_descriptor,
            "context": dict(self.incident_context),
        }
        incident_id = None
        if self.incidents is not None:
            incident_id = self.incidents.record(record)
        if incident_id is not None:
            self.incident_ids.append(incident_id)
        return incident_id

    # -- verification hooks ------------------------------------------------------

    def _check(
        self,
        func: Function,
        label: str,
        collector: Optional[RemarkCollector] = None,
        *,
        lint: bool = False,
    ) -> None:
        """Structural (and optionally lint) verification after ``label``."""
        if lint:
            from repro.verify.diagnostics import errors
            from repro.verify.lint import lint_function

            diagnostics = lint_function(func)
            self._emit_diagnostics(diagnostics, label, collector)
            fatal = errors(diagnostics)
            if fatal:
                raise PassVerificationError(
                    label, func.name, fatal, sequence=self.sequence_name
                )
            return
        try:
            validate_function(func)
        except IRValidationError as error:
            from repro.verify.diagnostics import Diagnostic

            diagnostic = Diagnostic(
                checker="structure",
                severity="error",
                function=func.name,
                message=str(error),
            )
            self._emit_diagnostics([diagnostic], label, collector)
            raise PassVerificationError(
                label, func.name, [diagnostic], sequence=self.sequence_name
            ) from error

    def _verify_semantics(
        self,
        before: IRSnapshot,
        func: Function,
        label: str,
        collector: Optional[RemarkCollector],
        *,
        certify: bool,
    ) -> IRSnapshot:
        """Certify (or replay-validate) ``before`` → ``func``.

        Returns the snapshot of ``func`` it checked, the next pass's
        before-state; raises :class:`PassVerificationError` on failure.
        """
        from repro.verify.transval import IRSnapshot

        after = IRSnapshot(func.clone())
        if certify:
            self._certify(before, after, label, collector)
        else:
            self._transval(before, after, label, collector)
        return after

    def _transval(
        self,
        before: IRSnapshot,
        after: IRSnapshot,
        label: str,
        collector: Optional[RemarkCollector],
    ) -> None:
        """Replay ``before`` vs ``after`` through the interpreting oracle."""
        from repro.verify.transval import validate_translation

        diagnostics = validate_translation(before, after)
        self._emit_diagnostics(diagnostics, label, collector)
        if diagnostics:
            raise PassVerificationError(
                label, after.func.name, diagnostics, sequence=self.sequence_name
            )

    def _certify(
        self,
        before: IRSnapshot,
        after: IRSnapshot,
        label: str,
        collector: Optional[RemarkCollector],
    ) -> None:
        """Statically certify ``before`` → ``after``; replay fallback.

        A ``refuted`` verdict (the PRE placement audit found a contract
        violation) is fatal immediately.  A ``proved`` verdict is final
        — nothing is executed.  ``inconclusive`` falls back to the
        interpreting :func:`~repro.verify.transval.validate_translation`
        oracle, so ``verify="certify"`` is never weaker than replay —
        just cheaper wherever the static proof lands.  The fallback
        reuses the fingerprints the proof already put on the snapshots.
        """
        from repro.verify.certify import certify_pass

        result = certify_pass(before, after, pass_name=label)
        name = after.func.name
        self._emit_diagnostics(
            list(result.diagnostics) + list(result.remarks), label, collector
        )
        if collector is not None:
            collector.add(Remark(
                label,
                name,
                "certify",
                {
                    "verdict": result.verdict,
                    "engine": result.engine,
                    "obligations": result.obligations,
                    "reason": result.reason,
                },
            ))
        if result.refuted:
            from repro.verify.diagnostics import errors

            fatal = errors(result.diagnostics) or result.diagnostics
            raise PassVerificationError(
                label, name, fatal, sequence=self.sequence_name
            )
        if not result.proved:
            self._transval(before, after, label, collector)

    def _emit_diagnostics(
        self, diagnostics, label: str, collector: Optional[RemarkCollector]
    ) -> None:
        """Route diagnostics into the remarks channel as ``"diagnostic"``.

        Every record is stamped with its originating pass (``origin``)
        before emission, so a diagnostic that escapes the collector (in
        a raised :class:`PassVerificationError`, a JSONL dump, a test
        assertion) still names the pass that produced it.
        """
        for diagnostic in diagnostics:
            if diagnostic.origin is None:
                diagnostic.origin = label
        if collector is None:
            return
        for diagnostic in diagnostics:
            collector.add(
                Remark(label, diagnostic.function, "diagnostic", diagnostic.as_dict())
            )

    # -- whole module ------------------------------------------------------------

    def run_module(self, module: Module) -> Module:
        """Optimize every function; fans out when ``jobs > 1``."""
        if self.jobs > 1:
            from repro.pm.parallel import run_module_parallel

            run_module_parallel(self, module)
        else:
            for func in module:
                self.run_function(func)
        return module
