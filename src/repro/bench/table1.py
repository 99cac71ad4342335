"""Table 1: dynamic operation counts at the four optimization levels.

For every suite routine this harness compiles at BASELINE, PARTIAL,
REASSOCIATION and DISTRIBUTION, executes the routine on its driver
inputs, and reports the dynamic ILOC operation counts plus the paper's
percentage columns:

* *partial %*: improvement of PARTIAL over BASELINE,
* *reassociation %*: improvement over PARTIAL,
* *distribution %*: improvement over REASSOCIATION,
* *new*: improvement of DISTRIBUTION over PARTIAL (what reassociation,
  distribution and global value numbering together add),
* *total*: improvement of DISTRIBUTION over BASELINE.

Run as a script::

    python -m repro.bench.table1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.bench.report import format_count, format_pct, format_table, improvement
from repro.bench.suite import SuiteRoutine, suite_routines
from repro.pipeline import OptLevel, compile_source, run_routine
from repro.pm.cache import PassCache
from repro.pm.manager import ManagerStats, PassManager
from repro.pm.remarks import RemarkCollector


@dataclass
class Table1Row:
    """Measured dynamic counts for one routine."""

    name: str
    baseline: int
    partial: int
    reassociation: int
    distribution: int

    @property
    def new_improvement(self) -> float:
        """The paper's *new* column: (reassoc+dist+GVN) over PARTIAL."""
        return improvement(self.partial, self.distribution)

    @property
    def total_improvement(self) -> float:
        """The paper's *total* column: everything over BASELINE."""
        return improvement(self.baseline, self.distribution)


def build_level_managers(
    *,
    cache: Optional[PassCache] = None,
    collector: Optional[RemarkCollector] = None,
    stats: Optional[ManagerStats] = None,
    verify: str = "final",
) -> dict[OptLevel, PassManager]:
    """One manager per Table 1 level, sharing stats/cache/remarks."""
    stats = stats if stats is not None else ManagerStats()
    return {
        level: PassManager(
            level.value, verify=verify, cache=cache, collector=collector, stats=stats
        )
        for level in OptLevel
    }


def measure_routine(
    routine: SuiteRoutine,
    managers: Optional[dict[OptLevel, PassManager]] = None,
) -> Table1Row:
    """Compile and run one routine at every level."""
    if managers is None:
        managers = build_level_managers()
    counts = {}
    for level in OptLevel:
        module = compile_source(routine.source, manager=managers[level])
        run = run_routine(
            module, routine.entry_name, routine.args, routine.fresh_arrays()
        )
        counts[level] = run.dynamic_count
    return Table1Row(
        name=routine.name,
        baseline=counts[OptLevel.BASELINE],
        partial=counts[OptLevel.PARTIAL],
        reassociation=counts[OptLevel.REASSOCIATION],
        distribution=counts[OptLevel.DISTRIBUTION],
    )


def generate_table1(
    routines: Optional[Iterable[SuiteRoutine]] = None,
    managers: Optional[dict[OptLevel, PassManager]] = None,
) -> list[Table1Row]:
    """Measure every routine; rows sorted by the *new* column (paper order)."""
    routines = list(routines) if routines is not None else suite_routines()
    if managers is None:
        managers = build_level_managers()
    rows = [measure_routine(routine, managers) for routine in routines]
    rows.sort(key=lambda row: row.new_improvement, reverse=True)
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    headers = [
        "routine",
        "baseline",
        "partial",
        "",
        "reassociation",
        "",
        "distribution",
        "",
        "new",
        "total",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.name,
                format_count(row.baseline),
                format_count(row.partial),
                format_pct(row.baseline, row.partial),
                format_count(row.reassociation),
                format_pct(row.partial, row.reassociation),
                format_count(row.distribution),
                format_pct(row.reassociation, row.distribution),
                format_pct(row.partial, row.distribution),
                format_pct(row.baseline, row.distribution),
            ]
        )
    return format_table(headers, body)


def summarize(rows: list[Table1Row]) -> dict:
    """Aggregate shape statistics (used by EXPERIMENTS.md and tests)."""
    import statistics

    partial_pcts = [improvement(r.baseline, r.partial) for r in rows]
    new_pcts = [r.new_improvement for r in rows]
    total_pcts = [r.total_improvement for r in rows]
    return {
        "routines": len(rows),
        "partial_median": statistics.median(partial_pcts),
        "partial_max": max(partial_pcts),
        "new_median": statistics.median(new_pcts),
        "new_max": max(new_pcts),
        "new_min": min(new_pcts),
        "routines_new_improved": sum(1 for p in new_pcts if p > 0.005),
        "routines_new_degraded": sum(1 for p in new_pcts if p < -0.005),
        "total_median": statistics.median(total_pcts),
        "total_max": max(total_pcts),
    }


@dataclass
class DynamicRow:
    """Static vs profile-weighted dynamic counts for one routine.

    ``static`` is the finished module's instruction count (φ and nop
    excluded), ``dynamic`` the interpreter's operation count on the
    driver inputs — at DISTRIBUTION (``-O2``) and at the ``spec`` level
    compiled against profiles collected from those same inputs.
    """

    name: str
    static_o2: int
    dynamic_o2: int
    static_spec: int
    dynamic_spec: int


def _static_ops(module) -> int:
    from repro.ir.opcodes import Opcode

    return sum(
        1
        for func in module.functions.values()
        for blk in func.blocks
        for inst in blk.instructions
        if inst.opcode not in (Opcode.PHI, Opcode.NOP)
    )


def generate_dynamic_rows(
    routines: Optional[Iterable[SuiteRoutine]] = None,
) -> list[DynamicRow]:
    """Measure the ``--dynamic`` section (suite order, no sorting)."""
    from repro.frontend import compile_program
    from repro.profile.collect import (
        collect_module_profiles,
        prepare_profiled_module,
    )
    from repro.profile.store import ProfileStore, set_default_store

    rows = []
    for routine in routines if routines is not None else suite_routines():
        store = ProfileStore(None)
        profiled = prepare_profiled_module(compile_program(routine.source))
        collect_module_profiles(
            profiled,
            [(routine.entry_name, routine.args, routine.fresh_arrays())],
            store=store,
        )
        measured = {}
        for label, level in (("o2", "distribution"), ("spec", "spec")):
            with set_default_store(store):
                module = compile_source(routine.source, level=level)
            run = run_routine(
                module, routine.entry_name, routine.args, routine.fresh_arrays()
            )
            measured[label] = (_static_ops(module), run.dynamic_count)
        rows.append(
            DynamicRow(
                name=routine.name,
                static_o2=measured["o2"][0],
                dynamic_o2=measured["o2"][1],
                static_spec=measured["spec"][0],
                dynamic_spec=measured["spec"][1],
            )
        )
    return rows


def format_dynamic_table(rows: list[DynamicRow]) -> str:
    headers = [
        "routine",
        "static O2",
        "dynamic O2",
        "static spec",
        "dynamic spec",
        "vs O2",
    ]
    body = [
        [
            row.name,
            format_count(row.static_o2),
            format_count(row.dynamic_o2),
            format_count(row.static_spec),
            format_count(row.dynamic_spec),
            format_pct(row.dynamic_o2, row.dynamic_spec),
        ]
        for row in rows
    ]
    return format_table(headers, body)


def main(
    cache_dir: Optional[str] = None,
    verify: str = "final",
    dynamic: bool = False,
    *,
    stats: Optional[ManagerStats] = None,
    collector: Optional[RemarkCollector] = None,
) -> None:  # pragma: no cover - exercised via CLI
    """Print Table 1 to stdout; ``stats`` and ``collector`` gather the
    pass managers' totals and remarks for the caller to report.

    Keeping stdout limited to the table means cold, warm-cache and
    instrumented runs all produce byte-identical table output.
    """
    cache = PassCache(cache_dir) if cache_dir else None
    managers = build_level_managers(
        cache=cache, collector=collector, stats=stats, verify=verify
    )
    rows = generate_table1(managers=managers)
    print(format_table1(rows))
    summary = summarize(rows)
    print()
    print(
        f"{summary['routines']} routines; PRE median improvement "
        f"{summary['partial_median']:.0%} (max {summary['partial_max']:.0%}); "
        f"reassociation+distribution add a median {summary['new_median']:.0%} "
        f"over PRE (max {summary['new_max']:.0%}, min {summary['new_min']:.0%}); "
        f"{summary['routines_new_improved']} routines improve, "
        f"{summary['routines_new_degraded']} degrade."
    )
    if dynamic:
        # the profiling extension: static size vs profile-weighted
        # dynamic counts, -O2 against the spec level (docs/PROFILE.md);
        # appended so the default table output stays byte-identical
        dynamic_rows = generate_dynamic_rows()
        print()
        print(format_dynamic_table(dynamic_rows))
        total_o2 = sum(row.dynamic_o2 for row in dynamic_rows)
        total_spec = sum(row.dynamic_spec for row in dynamic_rows)
        print()
        print(
            f"dynamic totals: O2 {format_count(total_o2)}, "
            f"spec {format_count(total_spec)} "
            f"({format_pct(total_o2, total_spec) or '0%'})"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
