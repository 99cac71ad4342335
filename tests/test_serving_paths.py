"""One request, one reply: every path that can answer a compile request
gives the same bytes.

Hypothesis draws requests — benchmark-suite routines sent as source and
fuzz CFGs (:func:`repro.bench.serve.fuzz_cfg_source`) sent as printed
IR — at ``none``, the four Table 1 levels and ``spec``.  The module
runs under an empty profile store, installed before the servers fork,
so ``spec`` prices with static estimates on every path.  Each request
goes through:

* :func:`~repro.pipeline.driver.compile_payload`, the one compile;
* :func:`~repro.triage.containment.compile_reply`, the request-to-reply
  function;
* :func:`~repro.triage.containment.run_ladder` on a clean compile;
* :func:`~repro.service.client.compile_with_fallback` with no server
  (the in-process fallback) and with a :class:`CompileDaemon` up;
* a fleet with tiering off.

Every reply must carry the same bytes, and none may be degraded.  One
daemon and one fleet serve the whole module.  The last two tests drive
the ownership rules those servers share: a request that kills workers
is retried by the shard's scheduler only, and a level whose output
depends on the profile store is never served from the fleet's store.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.serve import fuzz_cfg_source
from repro.bench.suite import suite_routines
from repro.frontend import compile_program
from repro.ir.printer import print_module
from repro.pipeline import OptLevel
from repro.pipeline.driver import compile_payload, parse_payload
from repro.profile.collect import collect_module_profiles, prepare_profiled_module
from repro.profile.store import ProfileStore, default_store, set_default_store
from repro.service import protocol
from repro.service.client import DaemonClient, DaemonError, compile_with_fallback
from repro.service.daemon import CompileDaemon, DaemonConfig
from repro.service.fleet import FleetConfig, FleetHandle
from repro.triage.containment import compile_reply, run_ladder

ROUTINES = suite_routines()
LEVELS = ["none", *(level.value for level in OptLevel), "spec"]

#: the fleet's own deadline: a poison pill must be answered well inside it
FLEET_TIMEOUT = 8.0

SOURCES = st.sampled_from(ROUTINES).map(lambda routine: ("source", routine.source))
CFGS = st.builds(
    lambda index, blocks, seed: (
        "ir", fuzz_cfg_source(index, blocks, random.Random(seed))
    ),
    st.integers(0, 99),
    st.integers(2, 6),
    st.integers(0, 2**16),
)


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paths")
    # installed before the forks, so daemon workers and fleet shards
    # read the same (empty, until the last test fills it) profile store
    with set_default_store(ProfileStore(str(tmp / "profiles"))):
        daemon = CompileDaemon(DaemonConfig(
            socket_path=str(tmp / "daemon.sock"),
            workers=2,
            cache_dir=str(tmp / "cache"),
            incident_dir=None,
        ))
        daemon.start()
        fleet = FleetHandle(FleetConfig(
            socket_path=str(tmp / "gateway.sock"),
            shards=2,
            runtime_dir=str(tmp / "run"),
            store_dir=str(tmp / "store"),
            cache_dir=str(tmp / "cache"),
            tiering=False,
            request_timeout=FLEET_TIMEOUT,
        ))
        try:
            fleet.start()
            yield daemon, fleet, str(tmp / "absent.sock")
        finally:
            fleet.stop()
            daemon.stop()


def _fleet_client(fleet) -> DaemonClient:
    return DaemonClient(fleet.config.socket_path, timeout=60.0,
                        connect_retries=8)


@settings(max_examples=30, deadline=None)
@given(payload=st.one_of(SOURCES, CFGS), level=st.sampled_from(LEVELS))
def test_every_path_gives_the_same_reply(servers, payload, level):
    daemon, fleet, absent = servers
    kind, text = payload
    expected = print_module(compile_payload(kind, text, level))
    if kind == "ir" and level == "none":
        assert expected == text  # printed IR round-trips unchanged

    ladder = run_ladder(parse_payload(kind, text), level)
    assert not ladder.degraded
    assert print_module(ladder.module) == expected

    request = protocol.compile_request(kind, text, level)
    local, local_origin = compile_with_fallback(request, absent)
    served, served_origin = compile_with_fallback(
        request, daemon.config.socket_path
    )
    assert (local_origin, served_origin) == ("local", "daemon")
    with _fleet_client(fleet) as client:
        fleet_reply = client.request(request)
    assert fleet_reply.get("tier") == 2 and fleet_reply.get("level") == level
    replies = {
        "compile_reply": compile_reply(request),
        "fallback": local,
        "daemon": served,
        "fleet": fleet_reply,
    }
    for path, reply in replies.items():
        assert reply["ok"], (path, reply)
        assert not reply.get("degraded"), (path, reply)
        assert reply["ir"] == expected, path


def _worker_crashes(client: DaemonClient, fleet: bool) -> int:
    stats = client.stats()
    return (stats["merged"] if fleet else stats)["counters"]["worker_crashes"]


def test_a_poison_pill_is_retried_by_the_shards_scheduler_only(servers):
    """A request that kills every worker at every level: the daemon's
    scheduler answers ``worker-crash`` after its retry budget at the
    requested level and at ``none`` (3 + 3 deaths); the fleet must give
    the same answer, with the same deaths, well inside its deadline."""
    daemon, fleet, _ = servers
    pill = {"kind": "crash", "attempts": 99}
    for path, is_fleet in ((daemon.config.socket_path, False),
                           (fleet.config.socket_path, True)):
        with DaemonClient(path, timeout=60.0, connect_retries=8) as client:
            before = _worker_crashes(client, is_fleet)
            started = time.monotonic()
            with pytest.raises(DaemonError) as excinfo:
                client.compile("source", ROUTINES[0].source, "baseline",
                               fault=pill, no_store=True)
            elapsed = time.monotonic() - started
            assert excinfo.value.kind == "worker-crash", path
            assert elapsed < FLEET_TIMEOUT / 2, (path, elapsed)
            assert _worker_crashes(client, is_fleet) - before == 6, path


# keep last: it fills the module's profile store
def test_spec_follows_the_profile_store_on_every_server(servers):
    """lospre's placement depends on the profile, so no cache may keep a
    ``spec`` build: once sgemv's profile lands in the store, the fleet
    must recompile it (from a shard), not replay the static build."""
    daemon, fleet, _ = servers
    routine = next(r for r in ROUTINES if r.name == "sgemv")
    with _fleet_client(fleet) as client:
        static = client.compile("source", routine.source, "spec")
        assert static["ir"] == print_module(
            compile_payload("source", routine.source, "spec")
        )
        collect_module_profiles(
            prepare_profiled_module(compile_program(routine.source)),
            [(routine.entry_name, routine.args, routine.fresh_arrays())],
            store=default_store(),
        )
        measured = print_module(
            compile_payload("source", routine.source, "spec")
        )
        assert measured != static["ir"]
        reply = client.compile("source", routine.source, "spec")
    assert reply["served_from"] == "shard"
    assert reply["ir"] == measured
    with DaemonClient(daemon.config.socket_path) as client:
        assert client.compile("source", routine.source, "spec")["ir"] == measured
