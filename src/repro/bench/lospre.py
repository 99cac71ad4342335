"""lospre benchmark (``repro bench lospre``).

Does profile-guided speculative PRE actually execute fewer operations
than the paper's conservative solvers?  For every suite routine:

1. **Collect** — the routine is compiled with the lospre *prefix*
   (``reassociate[distribute] ; gvn``), PRE-normalized, and run on its
   driver inputs with a :class:`~repro.profile.collect.ProfileRecorder`
   attached; the block/edge counters land in a benchmark-local profile
   store keyed by the exact body hash lospre will look up.
2. **Compile** — three pipelines from the same source: ``distribution``
   (LCM ``pre`` — the ``-O2`` baseline), the same with ``pre-mr``, and
   the ``spec`` sequence (``lospre``) with the collected profiles
   active and ``verify=certify`` engaged, so every speculative
   insertion faces the placement audit.
3. **Validate** — all three binaries run on the driver inputs; return
   values and final array contents must agree bit-for-bit (transval's
   observable-equality standard), and certify must report zero
   refutations.
4. **Count** — interpreter dynamic operation counts per variant.

Gates (exit 1 on violation): zero mismatches, zero refutations, lospre
never worse than either conservative solver on any routine, and — on
the full suite — strictly better than both in aggregate.  ``--quick``
keeps the per-routine gates but waives the strict-aggregate one (a
small prefix may contain no speculation opportunity).

Writes ``BENCH_lospre.json``.
"""

from __future__ import annotations

import sys

from repro.bench.report import finish, format_count, format_pct, format_table
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.pipeline.driver import run_routine
from repro.pipeline.levels import LEVEL_SEQUENCES
from repro.pm.manager import PassManager, PassVerificationError
from repro.pm.remarks import RemarkCollector
from repro.profile.collect import collect_module_profiles, prepare_profiled_module
from repro.profile.store import ProfileStore, set_default_store

#: Quick-mode routine count (deterministic: registry order).
QUICK_ROUTINES = 12

_VARIANTS = {
    "pre": LEVEL_SEQUENCES["distribution"],
    "pre-mr": [
        "pre-mr" if spec == "pre" else spec
        for spec in LEVEL_SEQUENCES["distribution"]
    ],
    "lospre": "spec",
}


def _observation(module, routine):
    run = run_routine(
        module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    return run.result.value, run.arrays, run.result.dynamic_count


def main(quick: bool = False, json_out: str = "BENCH_lospre.json") -> int:
    routines = list(suite_routines())
    if quick:
        routines = routines[:QUICK_ROUTINES]
    store = ProfileStore()  # in memory: nothing leaks between runs
    print(f"lospre bench: {len(routines)} routines; profiles in memory")

    rows = []
    totals = {name: 0 for name in _VARIANTS}
    mismatches: list[str] = []
    refutations: list[str] = []
    regressions: list[str] = []
    speculative_total = 0

    for routine in routines:
        profiled = prepare_profiled_module(compile_program(routine.source))
        collect_module_profiles(
            profiled,
            [(routine.entry_name, routine.args, routine.fresh_arrays())],
            store=store,
        )

        observations = {}
        counts = {}
        for variant, sequence in _VARIANTS.items():
            module = compile_program(routine.source)
            collector = RemarkCollector()
            if variant == "lospre":
                manager = PassManager(
                    sequence, verify="certify", collector=collector
                )
                with set_default_store(store):
                    try:
                        manager.run_module(module)
                    except PassVerificationError as error:
                        refutations.append(f"{routine.name}: {error}")
                        continue
                for remark in collector.remarks:
                    if remark.event == "certify" and (
                        remark.data.get("verdict") == "refuted"
                    ):
                        refutations.append(
                            f"{routine.name}/{remark.function}: "
                            f"{remark.data.get('reason')}"
                        )
                    if remark.event == "placement":
                        speculative_total += remark.data.get("speculative", 0)
            else:
                manager = PassManager(sequence, collector=collector)
                manager.run_module(module)
            value, arrays, dynamic = _observation(module, routine)
            observations[variant] = (value, arrays)
            counts[variant] = dynamic

        if len(counts) < len(_VARIANTS):
            continue  # refuted: already recorded, nothing to compare
        reference = observations["pre"]
        for variant in ("pre-mr", "lospre"):
            if observations[variant] != reference:
                mismatches.append(f"{routine.name}: {variant} diverges")
        for variant in ("pre", "pre-mr"):
            if counts["lospre"] > counts[variant]:
                regressions.append(
                    f"{routine.name}: lospre {counts['lospre']} > "
                    f"{variant} {counts[variant]}"
                )
        for name in totals:
            totals[name] += counts[name]
        rows.append(
            {
                "name": routine.name,
                "pre": counts["pre"],
                "pre_mr": counts["pre-mr"],
                "lospre": counts["lospre"],
            }
        )

    print()
    print(
        format_table(
            ["routine", "pre (O2)", "pre-mr", "lospre", "vs O2"],
            [
                [
                    row["name"],
                    format_count(row["pre"]),
                    format_count(row["pre_mr"]),
                    format_count(row["lospre"]),
                    format_pct(row["pre"], row["lospre"]),
                ]
                for row in rows
            ],
        )
    )
    print()
    print(
        f"totals: pre {format_count(totals['pre'])}, "
        f"pre-mr {format_count(totals['pre-mr'])}, "
        f"lospre {format_count(totals['lospre'])} "
        f"({format_pct(totals['pre'], totals['lospre']) or '0%'} vs O2); "
        f"{speculative_total} speculative insertions certified"
    )

    failures: list[str] = []
    if mismatches:
        failures.append(f"{len(mismatches)} observable mismatches")
    if refutations:
        failures.append(f"{len(refutations)} certify refutations")
    if regressions:
        failures.append(f"{len(regressions)} per-routine regressions")
    if not quick:
        if totals["lospre"] >= totals["pre"]:
            failures.append("no strict aggregate win over pre")
        if totals["lospre"] >= totals["pre-mr"]:
            failures.append("no strict aggregate win over pre-mr")

    report = {
        "quick": bool(quick),
        "routines": len(routines),
        "totals": {k.replace("-", "_"): v for k, v in totals.items()},
        "rows": rows,
        "speculative_insertions": speculative_total,
        "mismatches": mismatches,
        "refutations": refutations,
        "regressions": regressions,
        "profile_store": store.stats(),
        "gates_passed": not failures,
    }
    for detail in mismatches + refutations + regressions:
        print(f"  {detail}", file=sys.stderr)
    return finish(report, failures, json_out)
