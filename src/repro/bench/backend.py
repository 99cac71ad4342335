"""Table 1, cycles edition: the backend benchmark (``BENCH_backend.json``).

Section 4 of the paper is careful about what dynamic *operation* counts
hide: PRE and reassociation lengthen live ranges, and "should the
improved code require excessive spilling, it might run more slowly".
Operation counts cannot show that — spills only exist below register
allocation.  This harness closes the loop:

for every suite routine × optimization level × k ∈ {8, 16, 32}:

1. compile at the level (the same per-level PassManagers Table 1 uses);
2. run the *interpreter* on the driver inputs — the oracle value,
   final memory, and the dynamic operation count;
3. lower, color (Chaitin–Briggs) and schedule a fresh copy for ``rvk``;
4. run the cycle-counting *simulator* on identical inputs;
5. check value and memory against the oracle (**any** mismatch fails
   the benchmark — this is the CI gate), and record cycles + spills.

The printed table reports, per k, the cycle improvement of DISTRIBUTION
over BASELINE next to its spill count; the JSON report carries the full
level × k grid so the spill effect is visible per level.  It also lists
every routine-level that is still slower at k=32 than at k=16, with the
block whose stall cycles differ most between the two (the simulator's
per-block counters), so each such case is explained where it happens.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.backend import Target, codegen_module
from repro.backend.sim import Simulator
from repro.backend.target import BENCH_KS
from repro.bench.report import (
    finish,
    format_count,
    format_pct,
    format_table,
    improvement,
)
from repro.bench.suite import SuiteRoutine, suite_routines
from repro.interp import Interpreter, Memory
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.pipeline import OptLevel, compile_source

#: Deterministic CI subset (--quick): every fourth routine in paper-table
#: order, so all three origins (fmm / blas / synthetic) stay covered.
QUICK_STRIDE = 4


@dataclass
class BackendCell:
    """One (routine, level, k) measurement."""

    cycles: int
    spilled: int
    spill_loads: int
    spill_stores: int
    stall_cycles: int
    sim_ok: bool
    #: the simulator's per-block counters (``SimResult.counters``)
    blocks: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "spilled_registers": self.spilled,
            "spill_loads": self.spill_loads,
            "spill_stores": self.spill_stores,
            "stall_cycles": self.stall_cycles,
            "sim_matches_interp": self.sim_ok,
        }


@dataclass
class BackendRow:
    """All measurements for one routine."""

    name: str
    ops: dict = field(default_factory=dict)  # level value -> dynamic ops
    cells: dict = field(default_factory=dict)  # (level value, k) -> BackendCell

    def cell(self, level: OptLevel, k: int) -> BackendCell:
        return self.cells[(level.value, k)]

    @property
    def sim_ok(self) -> bool:
        return all(cell.sim_ok for cell in self.cells.values())


def _drive(routine: SuiteRoutine):
    """Fresh (args, memory) for one execution of the routine's driver."""
    memory = Memory()
    args = list(routine.args)
    for values, elemsize in routine.fresh_arrays():
        args.append(memory.allocate_array(values, elemsize))
    return args, memory


def measure_backend_row(
    routine: SuiteRoutine,
    managers: dict,
    ks: Iterable[int] = BENCH_KS,
    *,
    schedule: bool = True,
) -> BackendRow:
    """Interp oracle + simulated cycles for one routine, all levels × k."""
    row = BackendRow(name=routine.name)
    for level in OptLevel:
        module = compile_source(routine.source, manager=managers[level])
        text = print_module(module)  # codegen mutates; keep the source of truth
        args, memory = _drive(routine)
        oracle = Interpreter(module).run(routine.entry_name, args, memory)
        row.ops[level.value] = oracle.dynamic_count
        oracle_mem = memory.snapshot()
        for k in ks:
            machine = parse_module(text)
            target = Target(k=k)
            stats = codegen_module(machine, target, schedule=schedule)
            sim_args, sim_memory = _drive(routine)
            result = Simulator(machine, target).run(
                routine.entry_name, sim_args, sim_memory
            )
            ok = (
                result.value == oracle.value
                and sim_memory.snapshot() == oracle_mem
            )
            row.cells[(level.value, k)] = BackendCell(
                cycles=result.cycles,
                spilled=sum(s.spill_count for s in stats.values()),
                spill_loads=sum(s.spill_loads for s in stats.values()),
                spill_stores=sum(s.spill_stores for s in stats.values()),
                stall_cycles=result.stall_cycles,
                sim_ok=ok,
                blocks=result.counters,
            )
    return row


def quick_subset(routines: Optional[list] = None) -> list:
    """The deterministic ``--quick`` subset (every 4th suite routine)."""
    routines = routines if routines is not None else suite_routines()
    return routines[::QUICK_STRIDE]


def generate_backend_rows(
    routines: Optional[Iterable[SuiteRoutine]] = None,
    ks: Iterable[int] = BENCH_KS,
    *,
    schedule: bool = True,
) -> list[BackendRow]:
    from repro.bench.table1 import build_level_managers

    routines = list(routines) if routines is not None else suite_routines()
    managers = build_level_managers()
    ks = list(ks)
    rows = [
        measure_backend_row(routine, managers, ks, schedule=schedule)
        for routine in routines
    ]
    base, dist = OptLevel.BASELINE, OptLevel.DISTRIBUTION
    rows.sort(
        key=lambda row: improvement(
            row.cell(base, ks[0]).cycles, row.cell(dist, ks[0]).cycles
        ),
        reverse=True,
    )
    return rows


def format_backend_table(rows: list[BackendRow], ks: Iterable[int] = BENCH_KS) -> str:
    """Cycles + spill columns: DISTRIBUTION vs BASELINE at each k."""
    base, dist = OptLevel.BASELINE, OptLevel.DISTRIBUTION
    headers = ["routine", "ops"]
    for k in ks:
        headers += [f"c(base)@{k}", f"c(dist)@{k}", f"Δ@{k}", f"sp@{k}"]
    body = []
    for row in rows:
        cells = [row.name, format_pct(row.ops[base.value], row.ops[dist.value]) or "0%"]
        for k in ks:
            before, after = row.cell(base, k), row.cell(dist, k)
            cells += [
                format_count(before.cycles),
                format_count(after.cycles),
                format_pct(before.cycles, after.cycles) or "0%",
                str(after.spilled),
            ]
        body.append(cells)
    return format_table(headers, body)


def summarize_backend(rows: list[BackendRow], ks: Iterable[int] = BENCH_KS) -> dict:
    """The per-level × per-k aggregate grid (the §4 spill-effect table)."""
    summary: dict = {}
    base = OptLevel.BASELINE
    for level in OptLevel:
        per_k = {}
        for k in ks:
            deltas = [
                improvement(row.cell(base, k).cycles, row.cell(level, k).cycles)
                for row in rows
            ]
            per_k[str(k)] = {
                "total_cycles": sum(row.cell(level, k).cycles for row in rows),
                "total_spilled": sum(row.cell(level, k).spilled for row in rows),
                "median_cycles_vs_baseline": statistics.median(deltas),
                "routines_slower_than_baseline": sum(1 for d in deltas if d < 0),
            }
        summary[level.value] = per_k
    return summary


def k32_slower_than_k16(rows: list[BackendRow]) -> list[dict]:
    """Every routine-level slower with 32 registers than with 16, with
    the block whose stall cycles differ most between the two."""
    slower = []
    for row in rows:
        for level in OptLevel:
            cells = {k: row.cell(level, k) for k in (16, 32)}
            if cells[32].cycles <= cells[16].cycles:
                continue

            def stalls(k: int, block: str) -> int:
                return cells[k].blocks.get(block, {}).get("stall_cycles", 0)

            blocks = sorted(set(cells[16].blocks) | set(cells[32].blocks))
            block = max(blocks, key=lambda b: abs(stalls(32, b) - stalls(16, b)))
            slower.append(
                {
                    "routine": row.name,
                    "level": level.value,
                    "cycles": {str(k): cells[k].cycles for k in cells},
                    "block": block,
                    "block_stall_cycles": {str(k): stalls(k, block) for k in cells},
                }
            )
    return slower


def report_jsonable(
    rows: list[BackendRow], ks: Iterable[int] = BENCH_KS, *, schedule: bool = True
) -> dict:
    ks = list(ks)
    return {
        "ks": ks,
        "scheduled": schedule,
        "routines": {
            row.name: {
                "ops": dict(row.ops),
                "levels": {
                    level.value: {
                        str(k): row.cell(level, k).as_dict() for k in ks
                    }
                    for level in OptLevel
                },
            }
            for row in rows
        },
        "summary": summarize_backend(rows, ks),
        "k32_slower_than_k16": (
            k32_slower_than_k16(rows) if {16, 32} <= set(ks) else []
        ),
        "mismatches": sum(
            0 if cell.sim_ok else 1 for row in rows for cell in row.cells.values()
        ),
    }


def main(
    quick: bool = False,
    json_out: str = "BENCH_backend.json",
    schedule: bool = True,
    ks: Optional[Iterable[int]] = None,
) -> int:  # pragma: no cover - exercised via CLI
    """Run the backend benchmark; exit 1 on any sim/interp mismatch."""
    routines = quick_subset() if quick else suite_routines()
    ks = list(ks or BENCH_KS)
    rows = generate_backend_rows(routines, ks=ks, schedule=schedule)
    print(format_backend_table(rows, ks))
    summary = summarize_backend(rows, ks)
    print()
    for level in OptLevel:
        parts = []
        for k in ks:
            cell = summary[level.value][str(k)]
            parts.append(
                f"k={k}: {cell['median_cycles_vs_baseline']:+.0%} median, "
                f"{cell['total_spilled']} spills"
            )
        print(f"{level.value:>14} vs baseline cycles — " + "; ".join(parts))
    report = report_jsonable(rows, ks, schedule=schedule)
    for case in report["k32_slower_than_k16"]:
        cycles, stalls = case["cycles"], case["block_stall_cycles"]
        print(
            f"{case['routine']}@{case['level']}: k=32 {cycles['32']} cycles > "
            f"k=16 {cycles['16']}; {case['block']} stalls "
            f"{stalls['16']} -> {stalls['32']}"
        )
    failures = []
    if report["mismatches"]:
        failures.append(
            f"{report['mismatches']} simulator/interpreter mismatches"
        )
    else:
        print(
            f"{len(rows)} routines × {len(list(OptLevel))} levels × k∈{ks}: "
            "all simulator results match the interpreter"
        )
    return finish(report, failures, json_out)
