"""Certifier gate runner (``repro bench certify``).

What does each verdict buy?  For every benchmark-suite routine the
distribution-level pipeline is unrolled into its individual pass runs —
(before, after) function pairs, the exact workload ``verify=certify``
and ``verify=transval`` face — and both verifiers judge every pair:

* **certify** — :func:`repro.verify.certify.certify_pass`: the joint
  value-graph proof plus the PRE placement audit.  Static; a proof
  holds for every input.
* **transval** — :func:`repro.verify.transval.validate_translation`:
  interpret both sides on generated inputs and compare observations.
  Dynamic; it samples a few inputs.

The report counts certify's verdicts (proved / inconclusive / refuted)
and the pairs replay flags: the exact-arithmetic proof licenses float
reassociation that replay rejects.  It then compiles the whole suite
under ``verify=certify`` and ``verify=transval``, with the fallback
replays and the fingerprint fast path engaged, and counts the programs
each policy rejects (``reassociate[distribute=True]`` really changes
float rounding; the replay oracle rejects that, the exact-arithmetic
certifier licenses it — see ``docs/CERTIFY.md``).

Every count depends only on the code, so ``BENCH_certify.json``
regenerates byte for byte.  The command exits 1 on any refutation.
What verification costs is measured by perfbench's verified-spec
workload (``verify.s``, ``verify.transval.s``).
"""

from __future__ import annotations

from repro.bench.report import finish
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pipeline.driver import compile_source
from repro.pipeline.levels import LEVEL_SEQUENCES

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


def main(quick: bool = False, json_out: str = "BENCH_certify.json") -> int:
    from repro.pm.manager import PassVerificationError
    from repro.verify.certify import certify_pass
    from repro.verify.transval import validate_translation

    routines = list(suite_routines())
    if quick:
        routines = routines[:QUICK_ROUTINES]
    pairs = _pass_pairs(routines)
    print(
        f"certify bench: {len(routines)} routines, {len(pairs)} pass "
        f"pairs at level {_LEVEL}"
    )

    verdicts = {"proved": 0, "inconclusive": 0, "refuted": 0}
    for base, before, after in pairs:
        verdicts[certify_pass(before, after, pass_name=base).verdict] += 1
    replay_flagged = sum(
        1 for _, before, after in pairs if validate_translation(before, after)
    )
    print(
        f"  pairs: {verdicts['proved']}/{len(pairs)} proved, "
        f"{verdicts['inconclusive']} inconclusive, "
        f"{verdicts['refuted']} refuted; replay flags {replay_flagged}"
    )

    pipeline = {}
    for policy in ("certify", "transval"):
        rejected = 0
        for routine in routines:
            try:
                compile_source(
                    routine.source,
                    level="distribution",
                    verify=policy,
                )
            except PassVerificationError:
                rejected += 1
        pipeline[policy] = {"failures": rejected}
        print(f"  pipeline verify={policy}: {rejected} rejected")

    report = {
        "level": _LEVEL,
        "quick": bool(quick),
        "routines": len(routines),
        "pairs": len(pairs),
        "verdicts": verdicts,
        "replay_flagged": replay_flagged,
        "pipeline": pipeline,
    }
    failures = []
    if verdicts["refuted"]:
        failures.append(
            f"the certifier refuted {verdicts['refuted']} pass run(s)"
        )
    return finish(report, failures, json_out)
