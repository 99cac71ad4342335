"""The static certifier: prove pass correctness without execution.

Two cooperating engines sit behind :func:`certify_pass`:

* :mod:`repro.verify.certify.valuegraph` — value-graph translation
  validation.  Proves observable equivalence of the before/after IR of
  *any* pass symbolically (joint optimistic value numbering over both
  SSA forms).  Can conclude ``proved`` or ``inconclusive``, never
  ``refuted``.
* :mod:`repro.verify.certify.placement` — the PRE placement audit.
  For ``pre``/``pre-mr`` it re-solves availability and anticipability
  with the passes' own dataflow solver and certifies the paper's
  placement contract: insertions are safe (anticipated), deletions are
  correct (available), surviving full redundancies are reported.  Can
  conclude ``refuted`` — a contract violation is a real miscompile
  diagnosis, not a failed proof.

The combined verdict is ``refuted`` if the placement audit refutes,
else ``proved`` if the value graph proves (and the placement audit,
when applicable, came back clean), else ``inconclusive`` — in which
case the caller (``verify=certify`` in the PassManager, or ``repro
certify``) falls back to the interpreter-replay oracle
:func:`repro.verify.transval.validate_translation` for a dynamic
verdict.  Neither engine mutates its inputs, so the same ``before``
function can be handed on to the fallback.

Every entry point takes plain functions or snapshots
(:class:`~repro.verify.transval.IRSnapshot`).  A snapshot keeps the
α-fingerprint and the SSA form it derives, so the fallback, and the
next pass's proof that starts from this pass's output, reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.function import Function
from repro.verify.certify.placement import (
    PRE_PASSES,
    SPECULATIVE_PRE_PASSES,
    PlacementAudit,
    audit_placement,
)
from repro.verify.certify.valuegraph import EquivalenceProof, prove_equivalence
from repro.verify.transval import IRSnapshot

__all__ = [
    "PRE_PASSES",
    "SPECULATIVE_PRE_PASSES",
    "CertifyResult",
    "EquivalenceProof",
    "PlacementAudit",
    "audit_placement",
    "certify_pass",
    "prove_equivalence",
]


@dataclass
class CertifyResult:
    """The combined verdict of the static certifier for one pass run."""

    verdict: str  # "proved" | "refuted" | "inconclusive"
    engine: str  # which engine decided: "valuegraph", "placement", "both"
    reason: str
    obligations: int = 0
    diagnostics: list = field(default_factory=list)
    remarks: list = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def certify_pass(
    before: Function | IRSnapshot,
    after: Function | IRSnapshot,
    *,
    pass_name: Optional[str] = None,
) -> CertifyResult:
    """Statically certify one pass run; mutates neither argument.

    ``pass_name`` (the pass label; ``pre``, ``pre(...)`` and
    ``pre[...]`` argument spellings all resolve to their base name)
    routes PRE runs through the placement audit in addition to the
    value-graph proof.
    """
    before, after = IRSnapshot.of(before), IRSnapshot.of(after)
    if before.fingerprint == after.fingerprint:
        # the pass was an identity (modulo register naming): nothing
        # was inserted or deleted, so the placement audit is vacuous
        return CertifyResult(
            "proved", "valuegraph", "alpha-equivalent printings"
        )

    base = (
        pass_name.split("(")[0].split("[")[0].strip() if pass_name else None
    )
    audit: Optional[PlacementAudit] = None
    if base in PRE_PASSES or base in SPECULATIVE_PRE_PASSES:
        # speculative solvers (lospre) are held to the same contract,
        # except that a profile-witnessed speculative insertion is
        # accepted where the conservative audit would refute
        audit = audit_placement(
            before.func, after.func,
            speculative=base in SPECULATIVE_PRE_PASSES,
        )
        if audit.verdict == "refuted":
            return CertifyResult(
                "refuted",
                "placement",
                audit.reason,
                obligations=audit.checks,
                diagnostics=list(audit.diagnostics),
                remarks=list(audit.remarks),
            )

    proof = prove_equivalence(before, after, skip_fingerprint=True)
    remarks = list(audit.remarks) if audit is not None else []
    if proof.proved:
        engine = "both" if audit is not None and audit.verdict == "clean" else "valuegraph"
        reason = proof.reason
        if audit is not None and audit.verdict == "clean":
            reason = f"{proof.reason}; {audit.reason}"
        return CertifyResult(
            "proved",
            engine,
            reason,
            obligations=proof.obligations + (audit.checks if audit else 0),
            remarks=remarks,
        )
    return CertifyResult(
        "inconclusive",
        "valuegraph",
        proof.reason,
        obligations=proof.obligations,
        diagnostics=list(proof.diagnostics),
        remarks=remarks,
    )
