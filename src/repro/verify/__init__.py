"""Semantic IR verification: lint checkers, replay oracle, static certifier.

Three layers (see ``docs/VERIFY.md`` and ``docs/CERTIFY.md``):

* :mod:`repro.verify.lint` + :mod:`repro.verify.checkers` — a registry
  of dataflow-backed IR checkers emitting structured
  :class:`~repro.verify.diagnostics.Diagnostic` records (dominance-aware
  def-use, unreachable blocks, dead stores, critical-edge audit,
  φ hygiene, rank monotonicity, naming discipline);
* :mod:`repro.verify.transval` — a per-pass translation validator that
  replays a function pre/post transformation through the interpreter on
  deterministic generated inputs, with an α-renaming-invariant
  fingerprint fast path;
* :mod:`repro.verify.certify` — the static certifier: value-graph
  translation validation (a joint optimistic value-numbering proof of
  observable equivalence, no execution) plus the PRE placement audit
  (safety/correctness/optimality facts re-proved with the passes' own
  dataflow solver, on the same bit masks).

All plug into :class:`repro.pm.manager.PassManager` as the
``verify="lint"``, ``verify="transval"`` and ``verify="certify"``
policies and into the ``repro lint`` / ``repro certify`` CLI
subcommands.
"""

from repro.verify.certify import (
    CertifyResult,
    EquivalenceProof,
    PlacementAudit,
    audit_placement,
    certify_pass,
    prove_equivalence,
)
from repro.verify.checkers import (
    CheckerInfo,
    all_checkers,
    checker_ids,
    get_checker,
    register_checker,
)
from repro.verify.diagnostics import (
    SEVERITIES,
    Diagnostic,
    Reporter,
    errors,
    promote_warnings,
    summarize,
)
from repro.verify.lint import LintError, lint_function, lint_module
from repro.verify.transval import (
    InputCase,
    IRSnapshot,
    generate_cases,
    semantic_fingerprint,
    validate_translation,
)

__all__ = [
    "CertifyResult",
    "CheckerInfo",
    "Diagnostic",
    "EquivalenceProof",
    "InputCase",
    "IRSnapshot",
    "LintError",
    "PlacementAudit",
    "Reporter",
    "SEVERITIES",
    "all_checkers",
    "audit_placement",
    "certify_pass",
    "checker_ids",
    "errors",
    "generate_cases",
    "get_checker",
    "lint_function",
    "lint_module",
    "promote_warnings",
    "prove_equivalence",
    "register_checker",
    "semantic_fingerprint",
    "summarize",
    "validate_translation",
]
