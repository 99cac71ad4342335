"""Failure containment and auto-triage.

The verify stack (lint → transval → certify) *detects* a bad pass
application; this package is what turns detection into an operational
story instead of an outage:

* :mod:`repro.triage.incidents` — a content-addressed, crash-consistent
  store of failure records (function IR, pass sequence, diagnostics);
* :mod:`repro.triage.containment` — the degradation ladder:
  ``compile_payload_contained`` retries a failing function down
  spec → O2 → O1 → O0 → none, so a compile request never fails;
* :mod:`repro.triage.bisect` — opt-bisect binary search pinning the
  first bad pass application of a recorded incident;
* :mod:`repro.triage.reduce` — a bugpoint-style delta-debugging reducer
  shrinking the IR and the pass sequence to a minimal reproducer;
* :mod:`repro.triage.chaos` — deterministic pass-crash / refutation
  injection, the engine behind ``repro bench chaos``.

The PassManager side (snapshots, rollback, ``on_error=`` policy) lives
in :mod:`repro.pm.manager`; this package depends on it, never the other
way around.
"""

from repro.triage.chaos import ChaosError, PassChaos
from repro.triage.containment import ContainedResult, compile_payload_contained
from repro.triage.incidents import Incident, IncidentStore

__all__ = [
    "ChaosError",
    "PassChaos",
    "ContainedResult",
    "compile_payload_contained",
    "Incident",
    "IncidentStore",
]
