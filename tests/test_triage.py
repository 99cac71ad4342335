"""Failure containment and auto-triage: sandbox, ladder, incidents,
bisect, reducer, quarantine, and crash-consistent stores.

The contract under test is *never fail, never lie*: an injected pass
crash or refuted verification must roll the function back (or walk the
degradation ladder), leave an honest incident behind, and that incident
must bisect to the injected pass and delta-reduce to a minimal artifact
that still reproduces.  Torn store writes must read as misses.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload
from repro.pipeline.levels import DEGRADATION_LADDER, ladder_levels, ladder_next
from repro.pm.cache import ArtifactStore, PassCache
from repro.pm.manager import DegradationRequired, PassManager
from repro.profile.model import FunctionProfile
from repro.profile.store import ProfileStore
from repro.triage import ChaosError, Incident, IncidentStore, PassChaos, run_ladder
from repro.triage.bisect import bisect_incident, replay
from repro.triage.reduce import reduce_incident

SOURCE = """
routine poly(x: int) -> int
  integer a
  integer b
  a = x * 3 + 7
  b = x * 3 + 7
  if x > 0 then
    return a + b
  end
  return a - b
end
"""


def _run(module, name="poly", args=(5,)):
    return Interpreter(module).run(name, list(args)).value


def _expected():
    return _run(compile_program(SOURCE))


# -- sandbox policies ----------------------------------------------------------


def test_sandbox_raise_propagates_chaos():
    module = compile_program(SOURCE)
    chaos = PassChaos(crash_passes=("pre",))
    manager = PassManager("distribution", verify="final", chaos=chaos)
    with pytest.raises(ChaosError):
        manager.run_module(module)


def test_sandbox_rollback_skips_failing_pass():
    module = compile_program(SOURCE)
    chaos = PassChaos(crash_passes=("pre",))
    store = IncidentStore()
    manager = PassManager(
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    manager.run_module(module)
    assert chaos.crashes >= 1
    assert store.entries(), "contained crash must record an incident"
    incident = store.entries()[0]
    assert incident.pass_label == "pre"
    assert incident.error_type == "ChaosError"
    assert _run(module) == _expected()


def test_sandbox_degrade_raises_degradation_required():
    module = compile_program(SOURCE)
    pristine = print_module(module)
    chaos = PassChaos(crash_passes=("pre",))
    manager = PassManager(
        "distribution", verify="final", on_error="degrade", chaos=chaos
    )
    with pytest.raises(DegradationRequired):
        manager.run_module(module)
    # degrade hands the *pristine* function back so the ladder can
    # retry it one rung down — no partial optimization may leak out
    assert print_module(module) == pristine


def test_sandbox_contains_refuted_verification():
    module = compile_program(SOURCE)
    chaos = PassChaos(corrupt_passes=("gvn",))
    store = IncidentStore()
    manager = PassManager(
        "distribution",
        verify="lint",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    manager.run_module(module)
    assert chaos.corruptions >= 1
    assert store.entries()
    assert _run(module) == _expected()


# -- degradation ladder --------------------------------------------------------


def test_ladder_walks_to_none():
    seen = []
    level = "spec"
    while level is not None:
        assert level not in seen, "ladder must not cycle"
        seen.append(level)
        level = ladder_next(level)
    assert seen[-1] == "none"
    assert "baseline" in seen


def test_ladder_helpers():
    assert ladder_next("unknown-sequence") == "baseline"
    rungs = ladder_levels("distribution")
    assert rungs[0] == "distribution" and rungs[-1] == "none"
    assert set(DEGRADATION_LADDER) >= {"spec", "distribution", "partial",
                                       "baseline", "none"}


def test_containment_rollback_stays_at_requested_level():
    store = IncidentStore()
    result = run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    assert result.achieved == result.requested == "distribution"
    assert result.degraded
    assert result.incident_ids
    assert _run(result.module) == _expected()


def test_containment_degrade_walks_ladder():
    store = IncidentStore()
    # 'dce' runs at every optimizing rung, so degrade must fall all
    # the way to the unoptimized floor — and still answer
    result = run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="degrade",
        incidents=store,
        chaos=PassChaos(crash_passes=("dce",)),
    )
    assert result.degraded
    assert result.achieved != "distribution"
    assert result.achieved in ladder_levels("distribution")
    assert _run(result.module) == _expected()
    assert store.entries()


def test_contained_compiles_never_poison_the_cache(tmp_path):
    cache = PassCache(str(tmp_path / "cache"))
    run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=IncidentStore(),
        chaos=PassChaos(crash_passes=("pre",)),
        cache=cache,
    )
    clean = compile_payload("source", SOURCE, "distribution", "final")
    clean_text = print_module(clean)
    # a fresh uncontained compile through the same cache must not see a
    # rolled-back (pass-skipped) image as a hit
    manager = PassManager("distribution", verify="final", cache=cache)
    module = compile_program(SOURCE)
    manager.run_module(module)
    assert print_module(module) == clean_text


# -- incident store ------------------------------------------------------------


def test_incident_store_roundtrip_and_dedup(tmp_path):
    store = IncidentStore(str(tmp_path))
    result = run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    incident_id = result.incident_ids[0]
    fresh = IncidentStore(str(tmp_path))
    incident = fresh.get(incident_id)
    assert incident is not None
    assert incident.pass_label == "pre"
    # re-recording the same failure bumps count, no sibling file
    before = len(os.listdir(tmp_path))
    run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    assert len(os.listdir(tmp_path)) == before
    assert store.get(incident_id).count == 2


def test_incident_store_corrupt_entry_is_a_miss(tmp_path):
    store = IncidentStore(str(tmp_path))
    result = run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    incident_id = result.incident_ids[0]
    (path,) = [
        os.path.join(tmp_path, name) for name in os.listdir(tmp_path)
    ]
    with open(path, "w") as handle:
        handle.write('{"version": 1, "funct')
    fresh = IncidentStore(str(tmp_path))
    assert fresh.get(incident_id) is None
    assert fresh.entries() == []


# -- bisect + reduce -----------------------------------------------------------


def _one_incident(chaos_kind="crash", label="pre"):
    store = IncidentStore()
    chaos = (
        PassChaos(crash_passes=(label,))
        if chaos_kind == "crash"
        else PassChaos(corrupt_passes=(label,))
    )
    run_ladder(
        compile_program(SOURCE),
        "distribution",
        verify="lint",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    return store.entries()[0]


def test_bisect_pins_injected_pass():
    incident = _one_incident("crash", "pre")
    result = bisect_incident(incident)
    assert result is not None
    assert result.culprit_label == "pre"
    assert result.culprit_application == incident.application
    # binary search, not linear scan
    assert result.probes <= result.total_applications


def test_bisect_pins_corrupting_pass():
    incident = _one_incident("corrupt", "gvn")
    result = bisect_incident(incident)
    assert result is not None
    assert result.culprit_label == "gvn"


def test_reducer_shrinks_and_still_reproduces():
    incident = _one_incident("crash", "pre")
    artifact = reduce_incident(incident)
    assert artifact is not None
    assert artifact.instructions_after <= artifact.instructions_before
    assert artifact.specs_after < artifact.specs_before
    assert [label for label in artifact.specs] or artifact.specs
    outcome = replay(incident, ir_text=artifact.ir, specs=artifact.specs)
    assert outcome.matches(incident)
    payload = artifact.to_json()
    assert payload["error_type"] == incident.error_type


def test_reducer_returns_none_for_stale_incident():
    incident = _one_incident("crash", "pre")
    # forge an incident whose chaos descriptor no longer fires
    stale = incident.from_json(
        {**incident.to_json(), "chaos": {"kind": "crash", "pass": "no-such",
                                         "function": incident.function}}
    )
    assert reduce_incident(stale) is None


def test_chaos_draws_are_deterministic():
    first = PassChaos(seed=7, crash_rate=0.2, corrupt_rate=0.2)
    second = PassChaos(seed=7, crash_rate=0.2, corrupt_rate=0.2)
    store_a, store_b = IncidentStore(), IncidentStore()
    for chaos, store in ((first, store_a), (second, store_b)):
        run_ladder(
            compile_program(SOURCE),
            "distribution",
            verify="lint",
            on_error="degrade",
            incidents=store,
            chaos=chaos,
        )
    assert (first.crashes, first.corruptions) == (
        second.crashes,
        second.corruptions,
    )
    assert [i.incident_id for i in store_a.entries()] == [
        i.incident_id for i in store_b.entries()
    ]


# -- service quarantine --------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.faults import RetryPolicy

    config = DaemonConfig(
        socket_path=str(tmp_path / "d.sock"),
        workers=2,
        cache_dir=str(tmp_path / "cache"),
        incident_dir=str(tmp_path / "incidents"),
        request_timeout=60.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    instance = CompileDaemon(config)
    instance.start()
    yield instance
    instance.stop()


PILL = {"kind": "crash", "attempts": 99, "levels": ["distribution"]}


def test_scheduler_quarantines_poison_pill(daemon):
    from repro.service.client import DaemonClient

    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        reply = client.compile(
            "source", SOURCE, "distribution", "final", fault=dict(PILL)
        )
        assert reply["ok"] and reply.get("degraded")
        achieved = reply["level"]
        assert achieved != "distribution"
        assert reply["requested_level"] == "distribution"
        assert reply["ir"] == print_module(
            compile_payload("source", SOURCE, achieved, "final")
        )
        crashes_first = client.stats()["counters"]["worker_crashes"]
        # the second submit must hit the quarantine map: served at the
        # surviving level without burning another worker
        again = client.compile(
            "source", SOURCE, "distribution", "final", fault=dict(PILL)
        )
        assert again["ok"] and again.get("degraded")
        stats = client.stats()
        assert stats["counters"]["worker_crashes"] == crashes_first
        assert stats["counters"]["quarantined"] >= 1
        assert stats["counters"]["quarantine_hits"] >= 1
        assert stats["counters"]["degraded_replies"] >= 2
        assert stats["scheduler"]["quarantined_keys"] >= 1


def test_poison_pill_with_raise_policy_fails_honestly(daemon):
    from repro.service.client import DaemonClient, DaemonError

    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        with pytest.raises(DaemonError) as excinfo:
            client.compile(
                "source",
                SOURCE,
                "distribution",
                "final",
                fault=dict(PILL),
                on_error="raise",
            )
        assert excinfo.value.kind == "worker-crash"


def test_daemon_survives_worker_sigkill(daemon):
    from repro.service.client import DaemonClient

    victim = daemon.scheduler.pool.get(0)
    os.kill(victim.process.pid, signal.SIGKILL)
    time.sleep(0.05)
    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        reply = client.compile("source", SOURCE, "baseline", "final")
        assert reply["ir"] == print_module(
            compile_payload("source", SOURCE, "baseline", "final")
        )


def test_level_gated_fault_is_dormant_off_level():
    from repro.service.faults import FaultInjected, maybe_trigger, validate_fault

    fault = validate_fault(dict(PILL))
    assert fault["levels"] == ["distribution"]
    # the crash kind calls os._exit, so probe the gate with the error
    # kind: dormant off-level, firing on-level
    probe = validate_fault(
        {"kind": "error", "attempts": 99, "levels": ["distribution"]}
    )
    assert maybe_trigger(probe, attempt=1, level="partial") is None
    assert maybe_trigger(probe, attempt=1, level=None) is None
    with pytest.raises(FaultInjected):
        maybe_trigger(probe, attempt=1, level="distribution")
    with pytest.raises(ValueError):
        validate_fault({"kind": "crash", "levels": "distribution"})


# -- crash-consistent stores ---------------------------------------------------


INCIDENT = {
    "function": "f",
    "input_ir": "function f()",
    "specs": [["pre", {}]],
    "verify": "final",
    "pass_label": "pre",
    "pass_index": 0,
    "application": 1,
    "error_kind": "exception",
    "error_type": "ChaosError",
}

#: view -> (constructor, put one entry, read it back, an edit that parses)
STORE_VIEWS = {
    "PassCache": (
        PassCache,
        lambda store: store.store("input-ir", "fp", "optimized-ir"),
        lambda store: store.lookup("input-ir", "fp"),
        ("optimized-ir", "optimized-IR"),
    ),
    "ArtifactStore": (
        ArtifactStore,
        lambda store: store.put("a" * 64, "artifact body", level="partial"),
        lambda store: store.get("a" * 64, "partial"),
        ("artifact body", "artifact b0dy"),
    ),
    "ProfileStore": (
        ProfileStore,
        lambda store: store.put(
            FunctionProfile("f", "h", block_counts={"entry": 3}), merge=False
        ),
        lambda store: store.get("f", "h"),
        ('"entry": 3', '"entry": 9000'),
    ),
    "IncidentStore": (
        IncidentStore,
        lambda store: store.record(INCIDENT),
        lambda store: store.get(Incident(**INCIDENT).incident_id),
        ('"function": "f"', '"function": "g"'),
    ),
}


@pytest.mark.parametrize("view", list(STORE_VIEWS))
def test_torn_or_edited_entry_is_a_miss_then_heals(view, tmp_path):
    make, put, get, (old, new) = STORE_VIEWS[view]
    directory = str(tmp_path)
    put(make(directory))
    (name,) = os.listdir(directory)
    path = os.path.join(directory, name)
    with open(path) as handle:
        sealed = handle.read()
    assert old in sealed
    expected = get(make(directory))  # a fresh view reads the disk tier
    assert expected is not None
    for torn in (
        sealed.replace(old, new),  # edited, and still parses
        sealed[: len(sealed) // 2],  # truncated
        "garbage\nno header",
        "",
        sealed.split("\n", 1)[0] + "\nswapped body",  # valid header
    ):
        with open(path, "w") as handle:
            handle.write(torn)
        assert get(make(directory)) is None
        assert not os.path.exists(path), "corrupt entry must be unlinked"
        put(make(directory))
        assert get(make(directory)) == expected


def test_failed_incident_write_never_escapes_containment(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    store = IncidentStore(str(blocker / "incidents"))
    routine = suite_routines()[0]
    result = run_ladder(
        compile_program(routine.source),
        "distribution",
        on_error="degrade",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    assert result.degraded
    assert result.incident_ids  # recorded in memory, never on disk
    assert store.stats()["write_failures"] >= 1
