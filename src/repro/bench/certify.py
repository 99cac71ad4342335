"""Certifier benchmark (``repro bench certify``).

What does proving a pass statically cost next to replaying it, and what
does each verdict buy?

For every benchmark-suite routine the distribution-level pipeline is
unrolled into its individual pass runs — (before, after) function
pairs, the exact workload ``verify=certify`` and ``verify=transval``
face — and both verifiers are timed over the same pairs, best-of-N:

* **certify** — :func:`repro.verify.certify.certify_pass`: the joint
  value-graph proof plus the PRE placement audit.  Static; cost scales
  with program *size*.
* **transval** — :func:`repro.verify.transval.validate_translation`:
  interpret both sides on generated inputs and compare observations.
  Dynamic; cost scales with program *running time* (loop trip counts).

Certify's case is verdict quality, not speed: a proof holds for every
input, where replay samples a few, and the exact-arithmetic proof
licenses float reassociation that replay rejects.  On time, replay over
the decoded execution core (:mod:`repro.interp.core`) costs about as
much as the proof.  Verdict quality is reported next to the timing
(proved / inconclusive / refuted counts, and how many pairs replay
flags): an inconclusive verdict costs the pipeline a replay *on top of*
the proof attempt, which the end-to-end section below measures.

* **End-to-end pipeline wall time** — the full suite compiled under
  ``verify=off`` / ``certify`` / ``transval``, i.e. with the fallback
  replays and the fingerprint fast path both engaged.  Programs where
  ``transval`` hard-fails (``reassociate[distribute=True]`` really
  changes float rounding; the replay oracle rejects that, the
  exact-arithmetic certifier licenses it — see ``docs/CERTIFY.md``)
  are counted, not hidden.

Both times and their ratio are reported, not gated; the command exits 1
on any refutation.  Writes ``BENCH_certify.json``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline.driver import compile_source
from repro.pipeline.levels import LEVEL_SEQUENCES, OptLevel

#: Quick-mode routine count (deterministic: registry order).
QUICK_ROUTINES = 12

_LEVEL = "distribution"


def _pass_pairs(routines):
    """Unroll the distribution pipeline into (pass, before, after)."""
    from repro.pm.registry import resolve_spec

    pairs = []
    for routine in routines:
        module = compile_program(routine.source)
        for func in module:
            current = parse_function(print_function(func))
            for spec in LEVEL_SEQUENCES[_LEVEL]:
                base = spec if isinstance(spec, str) else spec[0]
                before = parse_function(print_function(current))
                current = resolve_spec(spec)(current)
                # snapshot: later passes mutate ``current`` in place
                after = parse_function(print_function(current))
                pairs.append((base, before, after))
    return pairs


def _best_of(repeat, fn):
    best = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(
    quick: bool = False,
    repeat: int = 3,
    json_out: Optional[str] = "BENCH_certify.json",
) -> int:
    from repro.pm.manager import PassVerificationError
    from repro.verify.certify import certify_pass
    from repro.verify.transval import validate_translation

    routines = list(suite_routines())
    if quick:
        routines = routines[:QUICK_ROUTINES]
    pairs = _pass_pairs(routines)
    print(
        f"certify bench: {len(routines)} routines, {len(pairs)} pass "
        f"pairs at level {_LEVEL} (best of {repeat})"
    )

    verdicts = {"proved": 0, "inconclusive": 0, "refuted": 0}
    flagged = [0]

    def certify_sweep():
        for key in verdicts:
            verdicts[key] = 0
        for base, before, after in pairs:
            verdicts[certify_pass(before, after, pass_name=base).verdict] += 1

    def transval_sweep():
        flagged[0] = sum(
            1 for _, before, after in pairs
            if validate_translation(before, after)
        )

    certify_time = _best_of(repeat, certify_sweep)
    transval_time = _best_of(repeat, transval_sweep)
    replay_flagged = flagged[0]
    speedup = transval_time / certify_time if certify_time else 0.0
    total = len(pairs)
    print(
        f"  pairs: certify {certify_time:.3f}s vs transval "
        f"{transval_time:.3f}s -> {speedup:.2f}x "
        f"({verdicts['proved']}/{total} proved, "
        f"{verdicts['inconclusive']} inconclusive, "
        f"{verdicts['refuted']} refuted; replay flags {replay_flagged})"
    )

    # end-to-end wall clock, one shot per policy (observational, like
    # the pair times above)
    pipeline = {}
    for policy in ("off", "certify", "transval"):
        failures = 0
        start = time.perf_counter()
        for routine in routines:
            try:
                compile_source(
                    routine.source,
                    level=OptLevel.DISTRIBUTION,
                    verify=policy,
                )
            except PassVerificationError:
                failures += 1
        elapsed = time.perf_counter() - start
        pipeline[policy] = {"seconds": elapsed, "failures": failures}
        print(
            f"  pipeline verify={policy}: {elapsed:.3f}s"
            + (f" ({failures} rejected)" if failures else "")
        )

    report = {
        "level": _LEVEL,
        "quick": bool(quick),
        "repeat": repeat,
        "routines": len(routines),
        "pairs": total,
        "verdicts": verdicts,
        "replay_flagged": replay_flagged,
        "certify_seconds": certify_time,
        "transval_seconds": transval_time,
        "speedup": speedup,
        "pipeline": pipeline,
    }
    if json_out:
        with open(json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_out}")

    if verdicts["refuted"]:
        print(
            f"FAIL: the certifier refuted {verdicts['refuted']} pass run(s)",
            file=sys.stderr,
        )
        return 1
    return 0
