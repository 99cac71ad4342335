"""The two in-process workloads: ``paper-suite`` and ``verified-spec``.

Both sweep the 50 suite routines in an order drawn from the seed.
Their timings are this thread's CPU seconds (``CLOCK``), scaled routine
by routine to reference seconds by ``harness.HostSpeed``: a sweep is
single-threaded and does no I/O, so CPU time is its wall time less the
time the hypervisor gave the vCPU to other guests, and the scaling
takes out the drift of the host's speed.  A sweep runs untraced (the end-to-end numbers) or traced: the traced
sweep makes the same calls one layer at a time — the frontend, one
``PassManager([spec], verify="off")`` per pass, the verifier, the
interpreter, each backend stage — each inside a span, so per-layer self
times come from outside the program.  Both sweeps print every build;
the traced run requires the printings and verdicts to be identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from statistics import median

from harness import (
    GcPauses,
    HostSpeed,
    NullTracer,
    Result,
    Tracer,
    committed_backend,
    committed_spec_total,
    committed_table1,
    matches_reference,
    peak_rss_mb,
    percentile,
    reference_outcome,
    tail_mean,
    time_cold_imports,
)

from repro.analysis.manager import GLOBAL_STATS
from repro.backend import Target
from repro.backend.lower import lower_function
from repro.backend.regalloc import allocate_function
from repro.backend.schedule import schedule_function
from repro.backend.sim import Simulator
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.interp import Interpreter, Memory
from repro.ir.parser import parse_function, parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.validate import validate_function
from repro.pipeline import OptLevel
from repro.pm.manager import PassManager, PassVerificationError
from repro.pm.registry import get_sequence, normalize_spec, spec_label
from repro.pm.remarks import RemarkCollector
from repro.profile.collect import collect_module_profiles, prepare_profiled_module
from repro.profile.store import ProfileStore, set_default_store
from repro.verify.certify import certify_pass
from repro.verify.transval import validate_translation

LEVELS = [level.value for level in OptLevel]
KS = (8, 16, 32)
TOP_K = 16
CLOCK = time.thread_time

PAPER_SETUP = (
    "import repro.backend, repro.interp, repro.pipeline\n"
    "from repro.bench.suite import suite_routines\n"
    "suite_routines()\n"
)
SPEC_SETUP = (
    "import repro.interp, repro.pipeline, repro.profile.collect, "
    "repro.verify.certify, repro.verify.transval\n"
    "from repro.bench.suite import suite_routines\n"
    "suite_routines()\n"
)


def pass_metric_name(spec) -> str:
    """``passes.<name>`` key: ``reassociate[distribute=True]`` -> ``reassociate-distribute``."""
    name, options = normalize_spec(spec)
    return name + ("-distribute" if options.get("distribute") else "")


def static_ops(module) -> int:
    return sum(func.static_count() for func in module)


def execute(module, routine, machine=None):
    """Run the routine on its inputs; returns (result, memory, final arrays).

    ``machine`` is a backend :class:`Target`: when given, the module is
    simulated for it instead of interpreted.
    """
    memory = Memory()
    args = list(routine.args)
    bases = []
    for values, elemsize in routine.fresh_arrays():
        base = memory.allocate_array(values, elemsize)
        bases.append((base, len(values), elemsize))
        args.append(base)
    if machine is None:
        result = Interpreter(module).run(routine.entry_name, args, memory)
    else:
        result = Simulator(module, machine).run(routine.entry_name, args, memory)
    arrays = [memory.read_array(base, count, size) for base, count, size in bases]
    return result, memory, arrays


def simulate(text: str, routine, result: Result, k: int = TOP_K):
    """Interpret the printed module ``text`` on the routine's inputs, then
    lower, allocate, schedule and simulate it for rvk with ``k``
    registers; the simulator must match the interpreter.

    Returns (interpreter result, final arrays, simulator result).
    """
    run, memory, arrays = execute(parse_module(text), routine)
    target = Target(k=k)
    machine = parse_module(text)
    for func in machine:
        lower_function(func, target)
        allocate_function(func, target)
        schedule_function(func, target)
    sim, sim_memory, _ = execute(machine, routine, target)
    result.check(
        sim.value == run.value and sim_memory.snapshot() == memory.snapshot(),
        lambda: f"{routine.name}: simulator at k={k} differs from the interpreter",
    )
    return run, arrays, sim


@dataclass
class Sweep:
    """Everything one pass over the routine set produced."""

    seconds: float = 0.0  # reference seconds (see ``HostSpeed``)
    cpu_seconds: float = 0.0  # the same time, unscaled
    latencies: dict = field(default_factory=dict)  # (routine, level) -> compile ref. seconds
    pauses: dict = field(default_factory=dict)  # (routine, level) -> full GCs in it, ref. s
    functions: int = 0
    texts: dict = field(default_factory=dict)  # (routine, level) -> printed IR
    dyn: dict = field(default_factory=dict)  # (routine, level) -> dynamic ops
    static: dict = field(default_factory=dict)  # (routine, level) -> static ops
    cycles: dict = field(default_factory=dict)  # (routine, k) -> cycles
    stalls: dict = field(default_factory=dict)  # (routine, k) -> stall cycles
    spills: dict = field(default_factory=dict)  # (routine, k) -> spill ops
    verdicts: dict = field(default_factory=dict)  # verdict -> count
    speculative: int = 0
    d_instr: dict = field(default_factory=dict)  # pass metric -> IR size change

    def total(self, table: dict, key) -> int:
        return sum(value for (_, k), value in table.items() if k == key)

    def add_routine(self, name: str, cpu_s: float, compiles: dict, factor: float) -> None:
        """Record one routine's CPU seconds and, per level, the seconds of
        its compile and of the full collections inside it, all scaled to
        reference seconds by ``factor``."""
        self.cpu_seconds += cpu_s
        self.seconds += cpu_s * factor
        for level, (seconds, paused) in compiles.items():
            self.latencies[(name, level)] = seconds * factor
            self.pauses[(name, level)] = paused * factor

    def amortized_latencies(self) -> dict:
        """The compile latencies with the full collections that landed in
        them shared out over all of them, in proportion to their length.
        Such a pause depends on the process's heap, not on the compile it
        interrupts; the total is unchanged."""
        own = {key: self.latencies[key] - self.pauses[key] for key in self.latencies}
        share = sum(self.pauses.values()) / sum(own.values())
        return {key: seconds * (1 + share) for key, seconds in own.items()}


class TracedCompiler:
    """One level's passes as single-pass managers, each call in a span.

    Mirrors ``PassManager(level, verify=...)`` function by function:
    every pass runs through its own ``PassManager([spec], verify="off")``,
    then the verification the level manager would do is called
    directly — ``validate_function`` for ``final``, ``certify_pass``
    with the ``validate_translation`` fallback for ``certify``.
    """

    def __init__(self, level: str, verify: str, tracer: Tracer) -> None:
        self.tracer = tracer
        self.verify = verify
        # remarks cost pass time: collect them only where the untraced
        # manager does (verified-spec, for verdicts and placements)
        self.collector = RemarkCollector() if verify == "certify" else None
        self.steps = [
            (
                spec_label(spec),
                "passes." + pass_metric_name(spec),
                PassManager([spec], verify="off", collector=self.collector),
            )
            for spec in get_sequence(level)
        ]
        self.d_instr: dict = {}
        self.verdicts: dict = {}

    def run(self, module, result: Result) -> None:
        span = self.tracer.span
        for func in module:
            for label, metric, manager in self.steps:
                if self.verify == "certify":
                    with span("verify"):
                        before_text = print_function(func)
                size = func.static_count()
                with span(metric):
                    manager.run_function(func)
                self.d_instr[metric] = (
                    self.d_instr.get(metric, 0) + func.static_count() - size
                )
                if self.verify == "certify":
                    self._certify(label, before_text, func, result)
            if self.verify == "final":
                with span("verify"):
                    validate_function(func)

    def _certify(self, label: str, before_text: str, func, result: Result) -> None:
        span = self.tracer.span
        with span("verify"):
            verdict = certify_pass(parse_function(before_text), func, pass_name=label)
            self.verdicts[verdict.verdict] = self.verdicts.get(verdict.verdict, 0) + 1
            result.require(not verdict.refuted, f"certify refuted {label} on {func.name}")
            if verdict.verdict == "inconclusive":
                with span("verify.transval"):
                    diagnostics = validate_translation(parse_function(before_text), func)
                result.require(
                    not diagnostics, f"transval rejected {label} on {func.name}"
                )


def remark_tally(collector: RemarkCollector, sweep: Sweep) -> None:
    for remark in collector.remarks:
        if remark.event == "certify":
            verdict = remark.data.get("verdict")
            sweep.verdicts[verdict] = sweep.verdicts.get(verdict, 0) + 1
        elif remark.event == "placement":
            sweep.speculative += remark.data.get("speculative", 0)


def merge_d_instr(compiler: TracedCompiler, sweep: Sweep) -> None:
    for metric, delta in compiler.d_instr.items():
        sweep.d_instr[metric] = sweep.d_instr.get(metric, 0) + delta


# -- paper-suite -----------------------------------------------------------------


def paper_sweep(routines, references, result: Result, pauses: GcPauses, tracer=None) -> Sweep:
    """All routines × four levels (verify=final, no cache), executed;
    the distribution build lowered and simulated at every k."""
    traced = tracer is not None
    span = (tracer if traced else NullTracer()).span
    sweep = Sweep()
    if traced:
        compilers = {level: TracedCompiler(level, "final", tracer) for level in LEVELS}
    else:
        managers = {level: PassManager(level, verify="final") for level in LEVELS}
    speed = HostSpeed()
    for routine in routines:
        started = CLOCK()
        compiles = {}
        for level in LEVELS:
            t0, paused = CLOCK(), pauses.seconds
            with span("frontend"):
                module = compile_program(routine.source)
            if traced:
                compilers[level].run(module, result)
            else:
                managers[level].run_module(module)
            compiles[level] = (CLOCK() - t0, pauses.seconds - paused)
            sweep.functions += len(module.functions)
            key = (routine.name, level)
            sweep.texts[key] = text = print_module(module)
            sweep.static[key] = static_ops(module)
            with span("interp"):
                run, memory, arrays = execute(module, routine)
            sweep.dyn[key] = run.dynamic_count
            result.check(
                matches_reference(run.value, arrays, references[routine.name]),
                lambda: f"{routine.name}@{level}: differs from the reference",
            )
            if level != "distribution":
                continue
            oracle_memory = memory.snapshot()
            for k in KS:
                machine = parse_module(text)
                target = Target(k=k)
                spill_ops = 0
                for func in machine:
                    with span("backend.lower"):
                        lower_function(func, target)
                    with span("backend.regalloc"):
                        stats = allocate_function(func, target)
                    with span("backend.schedule"):
                        schedule_function(func, target)
                    spill_ops += stats.spill_loads + stats.spill_stores
                with span("backend.sim"):
                    sim, sim_memory, _ = execute(machine, routine, target)
                sweep.cycles[(routine.name, k)] = sim.cycles
                sweep.stalls[(routine.name, k)] = sim.stall_cycles
                sweep.spills[(routine.name, k)] = spill_ops
                result.check(
                    sim.value == run.value and sim_memory.snapshot() == oracle_memory,
                    lambda: f"{routine.name}: simulator at k={k} differs "
                            "from the interpreter",
                )
        cpu_s = CLOCK() - started
        with span("calibrate"):
            sweep.add_routine(routine.name, cpu_s, compiles, speed.factor())
    if traced:
        for compiler in compilers.values():
            merge_d_instr(compiler, sweep)
    return sweep


def cross_check_paper(sweep: Sweep, result: Result) -> None:
    """Counts against results/table1.txt, cycles against BENCH_backend.json."""
    table1 = committed_table1()
    backend = committed_backend()
    for (name, level), ops in sweep.dyn.items():
        result.require(
            table1.get(name, {}).get(level) == ops,
            f"{name}@{level}: {ops} ops, results/table1.txt says "
            f"{table1.get(name, {}).get(level)}",
        )
    for (name, k), cycles in sweep.cycles.items():
        result.require(
            backend.get(name, {}).get(k) == cycles,
            f"{name}@k={k}: {cycles} cycles, BENCH_backend.json says "
            f"{backend.get(name, {}).get(k)}",
        )


# -- verified-spec ---------------------------------------------------------------


def spec_sweep(routines, references, result: Result, pauses: GcPauses, tracer=None) -> Sweep:
    """Per routine: profile into a fresh in-memory store, compile at
    distribution and spec under verify=certify, execute both."""
    traced = tracer is not None
    span = (tracer if traced else NullTracer()).span
    sweep = Sweep()
    store = ProfileStore(None)
    if traced:
        compilers = {
            level: TracedCompiler(level, "certify", tracer)
            for level in ("distribution", "spec")
        }
    speed = HostSpeed()
    for routine in routines:
        started = CLOCK()
        compiles = {}
        with span("profile"):
            profiled = prepare_profiled_module(compile_program(routine.source))
            collect_module_profiles(
                profiled,
                [(routine.entry_name, routine.args, routine.fresh_arrays())],
                store=store,
            )
        for level in ("distribution", "spec"):
            t0, paused = CLOCK(), pauses.seconds
            with span("frontend"):
                module = compile_program(routine.source)
            with set_default_store(store):
                if traced:
                    compilers[level].run(module, result)
                else:
                    collector = RemarkCollector()
                    try:
                        PassManager(
                            level, verify="certify", collector=collector
                        ).run_module(module)
                    except PassVerificationError as error:
                        result.check(False, f"{routine.name}@{level}: {error}")
                        continue
                    remark_tally(collector, sweep)
            compiles[level] = (CLOCK() - t0, pauses.seconds - paused)
            sweep.functions += len(module.functions)
            key = (routine.name, level)
            sweep.texts[key] = print_module(module)
            sweep.static[key] = static_ops(module)
            with span("interp"):
                run, _, arrays = execute(module, routine)
            sweep.dyn[key] = run.dynamic_count
            result.check(
                matches_reference(run.value, arrays, references[routine.name]),
                lambda: f"{routine.name}@{level}: differs from the reference",
            )
        cpu_s = CLOCK() - started
        with span("calibrate"):
            sweep.add_routine(routine.name, cpu_s, compiles, speed.factor())
    if traced:
        for compiler in compilers.values():
            for verdict, count in compiler.verdicts.items():
                sweep.verdicts[verdict] = sweep.verdicts.get(verdict, 0) + count
            remark_tally(compiler.collector, sweep)
            merge_d_instr(compiler, sweep)
    return sweep


def cross_check_spec(sweep: Sweep, result: Result) -> None:
    """Distribution counts against results/table1.txt, the spec total
    against BENCH_lospre.json."""
    table1 = committed_table1()
    for (name, level), ops in sweep.dyn.items():
        if level == "distribution":
            result.require(
                table1.get(name, {}).get(level) == ops,
                f"{name}@distribution: {ops} ops, results/table1.txt says "
                f"{table1.get(name, {}).get(level)}",
            )
    total = sweep.total(sweep.dyn, "spec")
    expected = committed_spec_total()
    result.require(
        total == expected,
        f"spec total {total} ops, BENCH_lospre.json says {expected}",
    )
    result.require(sweep.verdicts.get("refuted", 0) == 0, "certify refuted a pass")


# -- runs ------------------------------------------------------------------------


def same_outputs(first: Sweep, other: Sweep, result: Result, what: str) -> None:
    """Byte-identical builds and identical counts between two sweeps."""
    for table in ("texts", "dyn", "static", "cycles", "stalls", "spills"):
        result.require(
            getattr(first, table) == getattr(other, table),
            f"{what}: {table} differ",
        )
    result.require(first.verdicts == other.verdicts, f"{what}: certify verdicts differ")
    result.require(
        first.speculative == other.speculative,
        f"{what}: speculative insertion counts differ",
    )


def _ordered(routines, seed: int, sweep_index: int) -> list:
    order = list(routines)
    random.Random(seed * 1000 + sweep_index).shuffle(order)
    return order


def run_paper_suite(seed: int, seconds: float, trace: bool, result: Result) -> dict:
    return _run(
        paper_sweep, PAPER_SETUP, "distribution", cross_check_paper, 3,
        seed, seconds, trace, result,
    )


def run_verified_spec(seed: int, seconds: float, trace: bool, result: Result) -> dict:
    return _run(
        spec_sweep, SPEC_SETUP, "spec", cross_check_spec, 1,
        seed, seconds, trace, result,
    )


def _run(sweep_fn, setup_snippet, top, cross_check, min_sweeps,
         seed, seconds, trace, result) -> dict:
    """Sweep until ``seconds`` have passed and at least ``min_sweeps``
    sweeps are done, and report the end-to-end metrics, with ``top`` the
    level whose code quality counts."""
    routines = suite_routines()
    references = {r.name: reference_outcome(r) for r in routines}
    if trace:
        return _trace(routines, references, seed, result, sweep_fn)
    setup = time_cold_imports(setup_snippet)
    sweeps = []
    started = time.perf_counter()
    with GcPauses() as pauses:
        while len(sweeps) < min_sweeps or time.perf_counter() - started < seconds:
            order = _ordered(routines, seed, len(sweeps))
            sweeps.append(sweep_fn(order, references, result, pauses))
    rss = peak_rss_mb()
    first = sweeps[0]
    for index, other in enumerate(sweeps[1:], start=1):
        same_outputs(first, other, result, f"sweep {index} vs sweep 0")
    cross_check(first, result)
    if first.cycles:
        rvk_cycles = first.total(first.cycles, TOP_K)
    else:
        # a workload without a backend: simulate its builds after the loop
        rvk_cycles = sum(
            simulate(first.texts[(r.name, top)], r, result)[2].cycles
            for r in routines
        )
    # a request's latency is its median over the sweeps, with each
    # sweep's full collections shared out over its compiles, so that
    # neither a GC pause nor the cold first sweep moves it
    amortized = [sweep.amortized_latencies() for sweep in sweeps]
    latencies = [
        median(sweep[key] for sweep in amortized if key in sweep)
        for key in first.latencies
    ]
    sweep_s = median(sweep.seconds for sweep in sweeps)
    metrics = {
        "setup_s": median(setup),
        "compile_fps": first.functions / sum(latencies),
        "sweep_s": sweep_s,
        "dyn_ops": first.total(first.dyn, top),
        "static_ops": first.total(first.static, top),
        "rvk_cycles": rvk_cycles,
        "peak_rss_mb": rss,
        "req_mean_ms": sum(latencies) / len(latencies) * 1e3,
        "req_tail_ms": tail_mean(latencies) * 1e3,
        "req_per_s": len(latencies) / sweep_s,
    }
    for name, value in metrics.items():
        result.metric(name, value)
    return {
        "sweeps": len(sweeps),
        "requests": len(latencies),
        "req_p50_ms": percentile(latencies, 0.50) * 1e3,
        "req_p90_ms": percentile(latencies, 0.90) * 1e3,
        "verdicts": first.verdicts,
        "speculative": first.speculative,
    }


def _trace(routines, references, seed, result, sweep_fn) -> dict:
    """One untraced sweep, then the same sweep traced; compare, attribute."""
    order = _ordered(routines, seed, 0)
    tracer = Tracer(CLOCK)
    with GcPauses() as pauses:
        plain = sweep_fn(order, references, result, pauses)
        GLOBAL_STATS.reset()
        with tracer.span("sweep"):
            traced = sweep_fn(order, references, result, pauses, tracer)
    analysis = GLOBAL_STATS.as_dict()
    same_outputs(plain, traced, result, "traced vs untraced")
    # span times are CPU seconds: bring them to reference seconds at the
    # traced sweep's mean scale, like the sweep times they are set against
    scale = traced.seconds / traced.cpu_seconds

    def total(prefix: str) -> float:
        return tracer.total(prefix) * scale

    layers = {
        "frontend.s": total("frontend"),
        "lospre.speculative": traced.speculative,
        "analysis.hits": analysis["hits"],
        "analysis.misses": analysis["misses"],
        "analysis.hit_ratio": analysis["hit_rate"],
        # what the level manager costs beyond the work it drives
        "pm.residual_s": sum(plain.latencies.values()) - sum(
            total(name) for name in ("frontend", "passes", "verify")
        ),
        "verify.s": total("verify"),
        "verify.transval.s": total("verify.transval"),
        "verify.proved": traced.verdicts.get("proved", 0),
        "verify.inconclusive": traced.verdicts.get("inconclusive", 0),
        "profile.s": total("profile"),
        "interp.s": total("interp"),
        "interp.ops_per_s": sum(traced.dyn.values()) / total("interp"),
        "backend.cycles.k8": traced.total(traced.cycles, 8),
        "backend.cycles.k32": traced.total(traced.cycles, 32),
        "backend.stall_cycles.k16": traced.total(traced.stalls, 16),
        "backend.spill_ops.k8": traced.total(traced.spills, 8),
        "trace.overhead_s": traced.seconds - plain.seconds,
        # the traced sweep's time outside every layer span: the bench's
        # own printing, reference checks and bookkeeping
        "trace.residual_s": tracer.self_time["sweep"] * scale,
    }
    for level in LEVELS:
        layers[f"interp.dyn_ops.{level}"] = traced.total(traced.dyn, level)
    for name, seconds in tracer.self_time.items():
        if name.startswith(("passes.", "backend.")):
            layers[f"{name}.s"] = seconds * scale
    for metric, delta in traced.d_instr.items():
        layers[f"{metric}.d_instr"] = delta
    for name, value in layers.items():
        result.metric(name, value)
    return {
        "untraced_sweep_s": plain.seconds,
        "traced_sweep_s": traced.seconds,
        "spans": len(tracer.spans),
        "verdicts": traced.verdicts,
    }
