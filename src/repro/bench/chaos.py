"""Chaos harness for the failure-containment stack (``repro bench chaos``).

Injects failures at every layer the triage subsystem defends and gates
on the *never-fail* contract:

* **targeted crash** — a 100%-lethal :class:`~repro.triage.chaos.
  PassChaos` on :data:`CRASH_PASS`, ``on_error="rollback"``: every suite
  routine must still compile at the requested level with only the
  broken pass skipped, execute identically to its unoptimized build,
  and leave an incident behind.
* **random chaos** — suite-wide crash *and* corruption injection at
  :data:`RATE` per (function, pass), drawn from :data:`SEED`,
  ``on_error="degrade"``: every routine must land somewhere on the
  degradation ladder with lint-clean, semantically correct output.
* **triage loop** — a sample of the recorded incidents is bisected
  (the culprit must name the injected pass) and delta-reduced (the
  minimal artifact must still reproduce the oracle).
* **service chaos** — a live daemon is fed a *poison pill* (a
  level-gated crash fault that kills every worker at the requested
  level), plain crash faults, and a worker SIGKILL; every request must
  be answered, degraded replies must be byte-identical to a direct
  compile at their achieved level, and the scheduler must quarantine
  the pill.
* **torn writes** — truncated, garbage and edited entries planted in
  every :mod:`repro.store` view (:class:`~repro.pm.cache.PassCache`,
  :class:`~repro.pm.cache.ArtifactStore`, :class:`~repro.profile.
  store.ProfileStore`, :class:`~repro.triage.incidents.IncidentStore`)
  must read back as misses (then heal on re-put), never as corrupt
  hits; the report lists the stores it tore.

Writes ``BENCH_chaos.json`` and exits nonzero when any gate fails:
zero failed compiles, zero wrong replies, every induced failure
triaged.  ``--quick`` is the CI smoke configuration.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from typing import Optional

from repro.bench.report import finish
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload, compile_source, run_routine
from repro.triage import Incident, IncidentStore, PassChaos, run_ladder
from repro.triage.bisect import bisect_incident, replay
from repro.triage.reduce import reduce_incident

#: The pass the targeted-crash section kills on every application.
CRASH_PASS = "pre"

#: The random-chaos section's per-(function, pass) crash and corrupt
#: probability, and the seed of its draws.
RATE = 0.05
SEED = 0


def _approx(a, b, rel: float = 1e-9) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    return a == b


def _runs_match(run, base) -> bool:
    if not _approx(run.value, base.value):
        return False
    for got, want in zip(run.arrays, base.arrays):
        if len(got) != len(want):
            return False
        if not all(_approx(x, y) for x, y in zip(got, want)):
            return False
    return True


def _check_semantics(module, routine, baselines: dict) -> bool:
    """Execute the (possibly degraded) module against the unoptimized run."""
    base = baselines.get(routine.name)
    if base is None:
        base = run_routine(
            compile_source(routine.source),
            routine.entry_name,
            routine.args,
            routine.fresh_arrays(),
        )
        baselines[routine.name] = base
    run = run_routine(
        module, routine.entry_name, routine.args, routine.fresh_arrays()
    )
    return _runs_match(run, base)


# -- sections ------------------------------------------------------------------


def targeted_crash(routines, store: IncidentStore, baselines: dict) -> dict:
    """100% crash rate on :data:`CRASH_PASS`; rollback must absorb every
    firing."""
    failures: list[str] = []
    wrong: list[str] = []
    not_contained: list[str] = []
    for routine in routines:
        chaos = PassChaos(crash_passes=(CRASH_PASS,))
        try:
            result = run_ladder(
                compile_program(routine.source),
                "distribution",
                verify="lint",
                on_error="rollback",
                incidents=store,
                chaos=chaos,
            )
        except Exception as error:  # noqa: BLE001 — a failure IS the finding
            failures.append(f"{routine.name}: {type(error).__name__}: {error}")
            continue
        if chaos.crashes and not result.incident_ids:
            not_contained.append(routine.name)
        if not _check_semantics(result.module, routine, baselines):
            wrong.append(routine.name)
    return {
        "routines": len(routines),
        "crash_pass": CRASH_PASS,
        "compile_failures": failures,
        "wrong_output": wrong,
        "uncontained": not_contained,
    }


def random_chaos(routines, store: IncidentStore, baselines: dict) -> dict:
    """Suite-wide random crash+corrupt injection under the degrade ladder."""
    failures: list[str] = []
    wrong: list[str] = []
    degraded = 0
    fired = 0
    for routine in routines:
        chaos = PassChaos(seed=SEED, crash_rate=RATE, corrupt_rate=RATE)
        try:
            result = run_ladder(
                compile_program(routine.source),
                "distribution",
                verify="lint",
                on_error="degrade",
                incidents=store,
                chaos=chaos,
            )
        except Exception as error:  # noqa: BLE001
            failures.append(f"{routine.name}: {type(error).__name__}: {error}")
            continue
        fired += chaos.crashes + chaos.corruptions
        if result.degraded:
            degraded += 1
        if not _check_semantics(result.module, routine, baselines):
            wrong.append(routine.name)
    return {
        "routines": len(routines),
        "rate": RATE,
        "injections_fired": fired,
        "degraded_compiles": degraded,
        "compile_failures": failures,
        "wrong_output": wrong,
    }


def triage_loop(store: IncidentStore, sample: int) -> dict:
    """Bisect + reduce a sample of recorded incidents; both must close."""
    candidates = [
        incident for incident in store.entries() if incident.chaos
    ][:sample]
    bisect_misses: list[str] = []
    reduce_misses: list[str] = []
    reduced = 0
    for incident in candidates:
        injected = incident.chaos.get("pass", incident.pass_label)
        result = bisect_incident(incident)
        if result is None or result.culprit_label != injected:
            bisect_misses.append(
                f"{incident.incident_id}: expected {injected!r}, got "
                f"{result.culprit_label if result else None!r}"
            )
        artifact = reduce_incident(incident)
        if artifact is None:
            reduce_misses.append(f"{incident.incident_id}: did not reproduce")
            continue
        # the reducer only keeps oracle-green candidates, but re-check
        # the final artifact end to end anyway — that is the contract
        outcome = replay(
            incident, ir_text=artifact.ir, specs=artifact.specs
        )
        if not outcome.matches(incident):
            reduce_misses.append(
                f"{incident.incident_id}: reduced artifact does not reproduce"
            )
            continue
        store.update(incident.incident_id, reduced=artifact.to_json())
        reduced += 1
    return {
        "incidents_sampled": len(candidates),
        "reduced": reduced,
        "bisect_misses": bisect_misses,
        "reduce_misses": reduce_misses,
    }


def service_chaos(routines, workdir: str, incident_dir: str) -> dict:
    """Poison pills, crash faults and a worker SIGKILL against a daemon."""
    from repro.service.client import DaemonClient, DaemonError
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.faults import RetryPolicy

    config = DaemonConfig(
        socket_path=os.path.join(workdir, "chaos.sock"),
        workers=2,
        cache_dir=os.path.join(workdir, "cache"),
        incident_dir=incident_dir,
        request_timeout=60.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    daemon = CompileDaemon(config)
    daemon.start()
    failed: list[str] = []
    wrong: list[str] = []
    quarantined_replies = 0
    pill_fault = {"kind": "crash", "attempts": 99, "levels": ["distribution"]}
    try:
        with DaemonClient(config.socket_path, timeout=120.0) as client:

            def ask(label: str, *args, **kwargs) -> Optional[dict]:
                """One compile; an error reply or a lost connection is a
                failed request, recorded under ``label``."""
                try:
                    return client.compile(*args, **kwargs)
                except (DaemonError, OSError) as error:
                    failed.append(f"{label}: {error}")
                    return None

            # 1. poison pill: kills every worker at the requested level,
            # harmless one rung down — the scheduler must quarantine it
            pill = routines[0]
            reply = ask("poison-pill", "source", pill.source, "distribution",
                        "final", fault=pill_fault)
            if reply is not None:
                if not reply.get("degraded"):
                    failed.append("poison-pill reply not marked degraded")
                achieved = reply.get("level", "distribution")
                direct = print_module(
                    compile_payload("source", pill.source, achieved, "final")
                )
                if reply.get("ir") != direct:
                    wrong.append(f"poison-pill vs direct {achieved}")
                else:
                    quarantined_replies += 1
            # a resubmit must hit the quarantine map, not kill workers
            again = ask("poison-pill resubmit", "source", pill.source,
                        "distribution", "final", fault=pill_fault)
            if again is not None and not again.get("degraded"):
                failed.append("poison-pill resubmit not served degraded")
            # 2. transient crash: one worker death, retry must answer
            sample = routines[1 % len(routines)]
            reply = ask("crash-retry", "source", sample.source, "partial",
                        "final", fault={"kind": "crash", "attempts": 1})
            direct = print_module(
                compile_payload("source", sample.source, "partial", "final")
            )
            if reply is not None and reply.get("ir") != direct:
                wrong.append("crash-retry vs direct partial")
            # 3. SIGKILL a live worker, then keep compiling
            pool = daemon.scheduler.pool
            victim = pool.get(0)
            os.kill(victim.process.pid, signal.SIGKILL)
            time.sleep(0.05)
            for routine in routines[:4]:
                reply = ask(f"post-kill {routine.name}", "source",
                            routine.source, "baseline", "final")
                direct = print_module(
                    compile_payload(
                        "source", routine.source, "baseline", "final"
                    )
                )
                if reply is not None and reply.get("ir") != direct:
                    wrong.append(f"post-kill {routine.name}")
            stats = client.stats()
            counters = stats.get("counters", {})
            gauges = stats.get("scheduler", {})
    finally:
        daemon.stop()
    return {
        "failed_requests": failed,
        "wrong_replies": wrong,
        "quarantined_replies": quarantined_replies,
        "quarantined_counter": counters.get("quarantined", 0),
        "quarantine_hits": counters.get("quarantine_hits", 0),
        "degraded_replies": counters.get("degraded_replies", 0),
        "worker_crashes": counters.get("worker_crashes", 0),
        "quarantined_keys": gauges.get("quarantined_keys", 0),
    }


def torn_writes(workdir: str) -> dict:
    """Torn, garbage and edited entries must read as misses, then heal.

    Every store view is driven through its public methods; each read
    goes through a fresh view, as another process would, so it cannot
    be answered from the writer's memory tier.
    """
    from repro.pm.cache import ArtifactStore, PassCache
    from repro.profile.model import FunctionProfile
    from repro.profile.store import ProfileStore

    profile = FunctionProfile("f", "h", block_counts={"entry": 3})
    incident = {
        "function": "f", "input_ir": "function f()", "specs": [],
        "verify": "final", "pass_label": "pre", "pass_index": 0,
        "application": 1, "error_kind": "exception",
        "error_type": "ChaosError",
    }
    incident_id = Incident(**incident).incident_id
    #: store -> (view, put one entry, read it back, an edit that parses)
    views = {
        "PassCache": (
            PassCache,
            lambda store: store.store("input", "fp", "optimized"),
            lambda store: store.lookup("input", "fp"),
            ("optimized", "0ptimized"),
        ),
        "ArtifactStore": (
            ArtifactStore,
            lambda store: store.put("k" * 64, "artifact text", level="partial"),
            lambda store: store.get("k" * 64, "partial"),
            ("artifact text", "artifact t3xt"),
        ),
        "ProfileStore": (
            ProfileStore,
            lambda store: store.put(profile, merge=False),
            lambda store: store.get("f", "h"),
            ('"entry": 3', '"entry": 9000'),
        ),
        "IncidentStore": (
            IncidentStore,
            lambda store: store.record(incident),
            lambda store: store.get(incident_id),
            ('"count": 1', '"count": 7'),
        ),
    }
    problems: list[str] = []
    for name, (view, put, get, (old, new)) in views.items():
        directory = os.path.join(workdir, f"torn-{name}")
        put(view(directory))
        (entry,) = os.listdir(directory)
        path = os.path.join(directory, entry)
        with open(path) as handle:
            whole = handle.read()
        expected = get(view(directory))
        for label, torn in (
            ("truncated", whole[: len(whole) // 2]),
            ("garbage", "zzz\nnot-an-entry"),
            ("edited", whole.replace(old, new)),
        ):
            with open(path, "w") as handle:
                handle.write(torn)
            if get(view(directory)) is not None:
                problems.append(f"{name}: {label} entry served as a hit")
            if os.path.exists(path):
                problems.append(f"{name}: {label} entry left on disk")
            put(view(directory))
            if expected is None or get(view(directory)) != expected:
                problems.append(f"{name}: no heal after the {label} entry")
    return {"stores": sorted(views), "problems": problems}


# -- driver --------------------------------------------------------------------


def main(
    *,
    quick: bool = False,
    json_out: str = "BENCH_chaos.json",
    incident_dir: Optional[str] = None,
) -> int:
    routines = suite_routines()
    if quick:
        routines = routines[:6]
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    if incident_dir is None:
        incident_dir = os.path.join(workdir, "incidents")
    store = IncidentStore(incident_dir)
    baselines: dict = {}

    print(f"chaos: {len(routines)} routines, incidents -> {incident_dir}")
    report: dict = {"quick": quick}
    report["targeted_crash"] = targeted_crash(routines, store, baselines)
    print(
        "  targeted crash ({}): {} failures, {} wrong".format(
            CRASH_PASS,
            len(report["targeted_crash"]["compile_failures"]),
            len(report["targeted_crash"]["wrong_output"]),
        )
    )
    report["random_chaos"] = random_chaos(routines, store, baselines)
    print(
        "  random chaos: {} injections, {} degraded, {} failures".format(
            report["random_chaos"]["injections_fired"],
            report["random_chaos"]["degraded_compiles"],
            len(report["random_chaos"]["compile_failures"]),
        )
    )
    report["triage"] = triage_loop(store, sample=3 if quick else 10)
    print(
        "  triage: {}/{} reduced, {} bisect misses".format(
            report["triage"]["reduced"],
            report["triage"]["incidents_sampled"],
            len(report["triage"]["bisect_misses"]),
        )
    )
    report["service_chaos"] = service_chaos(routines, workdir, incident_dir)
    print(
        "  service: {} failed, {} wrong, quarantined={}".format(
            len(report["service_chaos"]["failed_requests"]),
            len(report["service_chaos"]["wrong_replies"]),
            report["service_chaos"]["quarantined_counter"],
        )
    )
    report["torn_writes"] = torn_writes(workdir)
    print(
        "  torn writes: {} stores, {} problems".format(
            len(report["torn_writes"]["stores"]),
            len(report["torn_writes"]["problems"]),
        )
    )

    gates = {
        "no_compile_failures": not report["targeted_crash"]["compile_failures"]
        and not report["random_chaos"]["compile_failures"],
        "no_wrong_output": not report["targeted_crash"]["wrong_output"]
        and not report["random_chaos"]["wrong_output"],
        "all_contained": not report["targeted_crash"]["uncontained"],
        "triage_closes": not report["triage"]["bisect_misses"]
        and not report["triage"]["reduce_misses"]
        and report["triage"]["incidents_sampled"] > 0,
        "service_never_fails": not report["service_chaos"]["failed_requests"],
        "service_replies_honest": not report["service_chaos"]["wrong_replies"],
        "poison_pill_quarantined": report["service_chaos"][
            "quarantined_counter"
        ]
        >= 1,
        "torn_writes_are_misses": not report["torn_writes"]["problems"],
    }
    failures = [f"gate not met: {name}" for name, ok in gates.items() if not ok]
    gates["pass"] = not failures
    report["gates"] = gates
    if not failures:
        print("all chaos gates passed")
    return finish(report, failures, json_out)
