"""From a compile request to its reply, and the degradation ladder.

:func:`compile_reply` is the one path from a compile request to its
reply: the daemon's workers, the client's in-process fallback and the
CLI's all call it, so a reply cannot depend on which of them answered.
Its fast path is :func:`repro.pipeline.driver.compile_payload`, an
unsandboxed :class:`~repro.pm.manager.PassManager` run.  The
frontend/parse step is *not* contained — a program that does not
compile deserves an honest ``compile-error`` — but optimization is:
when the fast path fails (and the request's ``on_error`` is not
``"raise"``), the payload is parsed afresh and handed to
:func:`run_ladder`.

:func:`run_ladder` runs each function under a sandboxed
``PassManager`` (``on_error="degrade"``); any pass exception or verify
refutation restores the function's entry IR and retries one rung down
the registry's :data:`~repro.pipeline.levels.DEGRADATION_LADDER`
(spec → distribution → partial → baseline → none).  The bottom rung
runs zero passes, so the walk always terminates — and because a
*clean* rung is byte-identical to a direct compile at that level, a
degraded reply is still an honest artifact of its achieved level, just
not of the requested one.

Every contained failure lands in the incident store, so degraded
replies are not silent: the reply carries the achieved level and the
incident ids, and ``repro triage`` picks the trail up from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.frontend import FrontendError
from repro.ir.function import Module
from repro.ir.parser import IRSyntaxError
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload, parse_payload
from repro.pipeline.levels import ladder_levels
from repro.pm.manager import DegradationRequired, ManagerStats, PassManager


@dataclass
class FunctionOutcome:
    """Where one function landed on the ladder."""

    function: str
    requested: str
    achieved: str
    incidents: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the output is not the pure requested-level image —
        either a lower rung answered, or (rollback) passes were skipped."""
        return self.achieved != self.requested or bool(self.incidents)


@dataclass
class ContainedResult:
    """One contained compile: the module plus the honesty metadata."""

    module: Module
    requested: str
    achieved: str  #: the lowest rung any function needed
    degraded: bool
    incident_ids: list[str] = field(default_factory=list)


def compile_reply(
    request: dict,
    *,
    manager: Optional[PassManager] = None,
    cache=None,
    incidents=None,
    stats: Optional[ManagerStats] = None,
) -> dict:
    """Answer one normalized compile request; never raises.

    ``request`` carries ``kind``, ``text``, ``level`` and ``verify``,
    optionally ``on_error`` (default ``"degrade"``) and
    ``requested_level``: the level the caller asked for, when the
    scheduler has quarantined the request one rung down to ``level``.
    ``manager`` is the fast path's :class:`PassManager` (built from
    ``level`` and ``verify`` when omitted); ``cache``, ``incidents`` and
    ``stats`` serve the ladder.

    The reply is ``{"ok": True, "ir": ...}``, plus ``degraded``,
    ``level`` (achieved), ``requested_level`` and ``incidents`` whenever
    the output is not the requested level's clean build; or
    ``{"ok": False, "error": {"kind": "compile-error", ...}}``.
    """
    kind, text = request["kind"], request["text"]
    level, verify = request["level"], request["verify"]
    requested = request.get("requested_level", level)
    on_error = request.get("on_error", "degrade")
    achieved, incident_ids = level, []
    try:
        try:
            module = compile_payload(kind, text, level, verify, manager=manager)
        except (FrontendError, IRSyntaxError):
            raise
        except Exception:
            # only an optimizer failure is contained; "none" runs none
            if on_error == "raise" or level == "none":
                raise
            result = run_ladder(
                parse_payload(kind, text), level, verify,
                on_error=on_error, incidents=incidents, cache=cache,
                stats=stats, kind=kind,
            )
            module, achieved = result.module, result.achieved
            incident_ids = result.incident_ids
    except Exception as error:  # noqa: BLE001 — a structured reply, not a crash
        return {
            "ok": False,
            "error": {
                "kind": "compile-error",
                "message": f"{type(error).__name__}: {error}",
            },
        }
    reply = {"ok": True, "ir": print_module(module)}
    if achieved != requested or incident_ids:
        reply.update(
            degraded=True,
            level=achieved,
            requested_level=requested,
            incidents=incident_ids,
        )
    return reply


def run_ladder(
    module: Module,
    level: str,
    verify: str = "final",
    *,
    on_error: str = "degrade",
    incidents=None,
    cache=None,
    chaos=None,
    collector=None,
    stats: Optional[ManagerStats] = None,
    kind: str = "source",
) -> ContainedResult:
    """Optimize ``module`` in place; failures degrade, never raise.

    ``on_error`` picks the containment flavor: ``"degrade"`` (default)
    walks the ladder so every function ends at the best level that
    compiles *cleanly*; ``"rollback"`` stays at the requested level and
    skips only the broken passes (the output is then a bespoke mix, so
    it is reported as degraded whenever anything was contained).
    ``kind`` only labels the incidents recorded.
    """
    stats = stats if stats is not None else ManagerStats()
    rungs = ladder_levels(level)
    degraded = False
    all_incidents: list[str] = []
    worst = 0  # deepest rung index any function needed
    for func in module:
        outcome = _contain_function(
            func, rungs, verify,
            on_error=on_error,
            incidents=incidents,
            cache=cache,
            chaos=chaos,
            collector=collector,
            stats=stats,
            kind=kind,
        )
        degraded = degraded or outcome.degraded
        all_incidents.extend(outcome.incidents)
        worst = max(worst, rungs.index(outcome.achieved))
    return ContainedResult(
        module, level, rungs[worst], degraded, all_incidents
    )


def _contain_function(
    func,
    rungs: list[str],
    verify: str,
    *,
    on_error: str,
    incidents,
    cache,
    chaos,
    collector,
    stats: ManagerStats,
    kind: str,
) -> FunctionOutcome:
    """Walk one function down the ladder until a rung completes."""
    from repro.analysis.manager import analyses
    from repro.pm.manager import _adopt

    requested = rungs[0]
    outcome = FunctionOutcome(func.name, requested, requested)
    pristine = func.clone()
    for position, rung in enumerate(rungs):
        if rung == "none":
            # zero passes: the entry IR is the answer (already restored)
            outcome.achieved = "none"
            return outcome
        # rollback stays on the requested rung; a rung it still cannot
        # finish (final verify refuted even after per-pass rollbacks)
        # falls through to degrade semantics on the rungs below
        policy = on_error if position == 0 else "degrade"
        manager = PassManager(
            rung,
            verify=verify,
            cache=cache,
            collector=collector,
            stats=stats,
            on_error=policy,
            incidents=incidents,
            incident_context={"level": rung, "requested": requested,
                              "kind": kind},
            chaos=chaos,
        )
        try:
            manager.run_function(func)
            outcome.incidents.extend(manager.incident_ids)
            outcome.achieved = rung
            return outcome
        except DegradationRequired:
            outcome.incidents.extend(manager.incident_ids)
            # the manager restored the rung-entry IR already; re-adopt
            # the pristine clone anyway so rung boundaries cannot drift
            _adopt(func, pristine.clone())
            analyses(func).invalidate_all()
    outcome.achieved = rungs[-1]
    return outcome
