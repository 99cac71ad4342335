"""Ablations of the design choices DESIGN.md calls out.

Each variant is a full pass pipeline differing from the paper's
DISTRIBUTION configuration in exactly one ingredient:

* ``no_gvn`` — reassociation without global value numbering: shows that
  renaming is what exposes the reshaped code to PRE (section 3.2);
* ``no_reassoc`` — PRE alone (the paper's PARTIAL column);
* ``unshared_emission`` — forward propagation materializing every tree
  per use (the paper's own behaviour) instead of sharing within blocks;
* ``with_lvn`` — adding the hash-based local value numbering the paper's
  optimizer lacked (section 4.1 predicts a further win);
* ``premature_shift`` — converting multiplies to shifts *before*
  reassociation, the section 5.2 mistake ("we have accidentally measured
  it more than once");
* ``commutative_gvn`` — the AWZ extension that exploits commutativity.

Run as a script::

    python -m repro.bench.ablation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.bench.report import format_count, format_pct, format_table
from repro.bench.suite import SuiteRoutine, suite_routines
from repro.frontend import compile_program
from repro.pipeline import run_routine
from repro.pipeline.levels import BASELINE_SPECS
from repro.pm.manager import ManagerStats, PassManager
from repro.pm.registry import PassSpec, register_sequence

_DISTRIBUTE = ("reassociate", {"distribute": True})

#: Every ablation variant, as ordered registry spec lists (the registry
#: also carries them as named sequences ``ablation/<variant>``).
VARIANTS: dict[str, list[PassSpec]] = {
    "reference": [_DISTRIBUTE, "gvn", "pre", *BASELINE_SPECS],
    "no_gvn": [_DISTRIBUTE, "pre", *BASELINE_SPECS],
    "no_reassoc": ["pre", *BASELINE_SPECS],
    "unshared_emission": [
        ("reassociate", {"distribute": True, "share_emission": False}),
        "gvn",
        "pre",
        *BASELINE_SPECS,
    ],
    "with_lvn": [_DISTRIBUTE, "gvn", "lvn", "pre", "lvn", *BASELINE_SPECS],
    "premature_shift": [
        ("peephole", {"convert_mul_to_shift": True}),
        _DISTRIBUTE,
        "gvn",
        "pre",
        *BASELINE_SPECS,
    ],
    "commutative_gvn": [
        _DISTRIBUTE,
        ("gvn", {"commutative": True}),
        "pre",
        *BASELINE_SPECS,
    ],
}

for _variant, _specs in VARIANTS.items():
    register_sequence(f"ablation/{_variant}", _specs)

#: Routines exercising the interesting behaviours, kept small so the
#: whole ablation matrix runs quickly.
DEFAULT_ROUTINES = (
    "sgemm",
    "sgemv",
    "saxpy",
    "tomcatv",
    "heat",
    "spline",
    "decomp",
    "fpppp",
    "drepvi",
    "inithx",
)


def _execute_variant(
    routine: SuiteRoutine,
    specs: Sequence[PassSpec],
    manager: Optional[PassManager] = None,
):
    module = compile_program(routine.source)
    if manager is None:
        manager = PassManager(specs)
    manager.run_module(module)
    return run_routine(
        module, routine.entry_name, routine.args, routine.fresh_arrays()
    ).result


@dataclass
class AblationRow:
    name: str
    counts: dict[str, int]


def generate_ablation(
    routine_names: Iterable[str] = DEFAULT_ROUTINES,
    variants: Optional[dict[str, list[PassSpec]]] = None,
    *,
    stats: Optional[ManagerStats] = None,
) -> list[AblationRow]:
    variants = variants if variants is not None else VARIANTS
    managers = {
        variant: PassManager(specs, stats=stats)
        for variant, specs in variants.items()
    }
    rows = []
    all_routines = {r.name: r for r in suite_routines()}
    for name in routine_names:
        routine = all_routines[name]
        counts = {
            variant: _execute_variant(
                routine, specs, managers[variant]
            ).dynamic_count
            for variant, specs in variants.items()
        }
        rows.append(AblationRow(name=name, counts=counts))
    return rows


def format_ablation(rows: list[AblationRow]) -> str:
    variants = list(rows[0].counts) if rows else []
    headers = ["routine", "reference"] + [v for v in variants if v != "reference"]
    body = []
    for row in rows:
        reference = row.counts["reference"]
        cells = [row.name, format_count(reference)]
        for variant in headers[2:]:
            count = row.counts[variant]
            pct = format_pct(count, reference)  # + means reference is better
            cells.append(f"{format_count(count)} ({pct or '='})")
        body.append(cells)
    return format_table(headers, body)


def _close(a, b, rel=1e-9) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    return a == b


def measure_strength_reduction(
    routine_names: Iterable[str] = DEFAULT_ROUTINES,
) -> list[tuple[str, int, int]]:
    """Dynamic multiply counts with/without the strength-reduction extension.

    Total *operation* counts are unchanged (a multiply becomes an add),
    so the relevant metric is the multiply count the paper's section 5.2
    cares about — multiplies were the expensive operation.
    """
    from repro.ir.opcodes import Opcode

    with_sr = [_DISTRIBUTE, "gvn", "pre", "strength", *BASELINE_SPECS]
    all_routines = {r.name: r for r in suite_routines()}
    rows = []
    for name in routine_names:
        routine = all_routines[name]
        plain = _execute_variant(routine, VARIANTS["reference"])
        reduced = _execute_variant(routine, with_sr)
        if plain.value is not None and not _close(plain.value, reduced.value):
            raise AssertionError(
                f"strength reduction changed {name}: {plain.value} -> {reduced.value}"
            )
        rows.append(
            (
                name,
                plain.op_counts.get(Opcode.MUL, 0),
                reduced.op_counts.get(Opcode.MUL, 0),
            )
        )
    return rows


def main(
    stats: Optional[ManagerStats] = None,
) -> None:  # pragma: no cover - exercised via CLI
    """Print the ablation table; ``stats`` gathers the pass managers'
    totals for the caller to report."""
    rows = generate_ablation(stats=stats)
    print(format_ablation(rows))
    print()
    print("cells show variant count (its deficit vs the reference pipeline)")
    print()
    print("strength reduction (dynamic multiplies, reference -> +SR):")
    for name, plain, reduced in measure_strength_reduction():
        print(f"  {name:<10} {plain:>8,} -> {reduced:>8,}")


if __name__ == "__main__":  # pragma: no cover
    main()
