"""Fleet tests: hashing, quotas, artifact store, gateway end-to-end.

The pure pieces (rendezvous hashing, token buckets, the artifact
store's atomic publish) are tested directly; one module-scoped
two-shard fleet on real Unix sockets covers the gateway behaviors —
tiered O1→O2 replies byte-identical to direct compiles, cross-client
dedup, quota shedding, merged stats, and shard-kill failover (kept
last in the file: it deliberately SIGKILLs a shard and relies on the
supervisor respawn).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload
from repro.pm.cache import ArtifactStore, PassCache
from repro.service import protocol
from repro.service.client import DaemonClient, DaemonError
from repro.service.fleet import (
    FleetConfig,
    FleetHandle,
    QuotaManager,
    TokenBucket,
    hashring,
)
from repro.service.fleet import gateway as gateway_module
from repro.service.metrics import Metrics, merge_snapshots
from repro.store import atomic_write_text, seal

SOURCE = """
routine triple(x: int) -> int
  return 3 * x
end
"""


def direct(kind, text, level="distribution", verify="final"):
    return print_module(compile_payload(kind, text, level, verify))


# -- rendezvous hashing ----------------------------------------------------------


def _keys(count):
    return [protocol.request_key("source", f"prog {i}", "none", "final")
            for i in range(count)]


def test_hashring_is_deterministic():
    shards = [f"shard-{i}" for i in range(4)]
    for key in _keys(32):
        first = hashring.choose(key, shards)
        assert first == hashring.choose(key, list(reversed(shards)))
        order = hashring.ranked(key, shards)
        assert order[0] == first
        assert sorted(order) == sorted(shards)


def test_hashring_removal_moves_only_the_lost_shards_keys():
    shards = [f"shard-{i}" for i in range(4)]
    keys = _keys(400)
    before = {key: hashring.choose(key, shards) for key in keys}
    removed = "shard-2"
    survivors = [shard for shard in shards if shard != removed]
    moved = 0
    for key in keys:
        after = hashring.choose(key, survivors)
        if before[key] == removed:
            moved += 1
            # the displaced key lands on its second-ranked shard
            assert after == hashring.ranked(key, shards)[1]
        else:
            # every other key's mapping is untouched: minimal remapping
            assert after == before[key]
    # the removed shard owned roughly 1/4 of the keyspace
    assert moved == sum(1 for owner in before.values() if owner == removed)
    assert 0 < moved < len(keys) / 2


def test_hashring_balance_is_roughly_uniform():
    shards = [f"shard-{i}" for i in range(4)]
    counts = {shard: 0 for shard in shards}
    for key in _keys(2000):
        counts[hashring.choose(key, shards)] += 1
    for count in counts.values():
        assert 300 < count < 700  # 500 expected; generous 3-sigma-ish band


def test_hashring_empty_and_single():
    assert hashring.choose("k", []) is None
    assert hashring.choose("k", ["only"]) == "only"
    assert hashring.ranked("k", []) == []


# -- quotas ----------------------------------------------------------------------


def test_token_bucket_spend_and_refill():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    now = time.monotonic()
    assert bucket.try_take(now) and bucket.try_take(now)
    assert not bucket.try_take(now)  # burst exhausted
    assert bucket.wait_time(now) == pytest.approx(0.1, abs=0.01)
    assert bucket.try_take(now + 0.15)  # refilled one token
    assert bucket.tokens < 1.0
    # refill never exceeds the burst cap
    bucket._refill(now + 1000.0)
    assert bucket.tokens == bucket.burst


def test_quota_manager_priorities():
    quotas = QuotaManager(
        default_rate=1000.0, default_burst=1000.0,
        overrides={"small": (10.0, 1.0)}, max_delay=0.25,
    )
    admitted, delay = quotas.admit("small", "interactive")
    assert admitted and delay == 0.0
    # bucket empty: interactive borrows the next token (short delay) ...
    admitted, delay = quotas.admit("small", "interactive")
    assert admitted and 0.0 < delay <= 0.25
    # ... while batch is shed immediately
    admitted, delay = quotas.admit("small", "batch")
    assert not admitted
    snap = quotas.snapshot()
    assert snap["small"]["spent"] == 2 and snap["small"]["denied"] == 1
    # unknown tenants get the defaults lazily
    assert quotas.admit("new-tenant", "batch") == (True, 0.0)


def test_quota_interactive_sheds_beyond_max_delay():
    quotas = QuotaManager(overrides={"slow": (0.5, 1.0)}, max_delay=0.1)
    assert quotas.admit("slow", "interactive")[0]
    # next token is ~2s away >> max_delay: even interactive is shed
    admitted, _ = quotas.admit("slow", "interactive")
    assert not admitted


# -- artifact store --------------------------------------------------------------


def test_artifact_store_roundtrip_and_levels(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    key = protocol.request_key("source", SOURCE, "distribution", "final")
    assert store.get(key, "distribution") is None
    store.put(key, "o1 text", level="none")
    store.put(key, "o2 text", level="distribution")
    # one entry per level holding only its text; a fresh view reads disk
    fresh = ArtifactStore(str(tmp_path / "store"))
    assert fresh.get(key, "none") == "o1 text"
    assert fresh.get(key, "distribution") == "o2 text"
    assert sorted(os.listdir(tmp_path / "store")) == [
        f"{key}.distribution.art", f"{key}.none.art"
    ]


def test_artifact_store_reads_a_provenance_tagged_entry_as_a_miss(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    path = directory / "deadbeef.none.art"
    path.write_text(seal(
        '{"level":"none","generation":1,"producer":"shard-0","tier":1}\n'
        "old text"
    ))
    store = ArtifactStore(str(directory))
    assert store.get("deadbeef", "none") is None
    assert not path.exists()
    store.put("deadbeef", "new text", level="none")
    assert ArtifactStore(str(directory)).get("deadbeef", "none") == "new text"


def test_artifact_store_is_crossprocess_visible(tmp_path):
    directory = str(tmp_path / "store")
    writer = ArtifactStore(directory)
    reader = ArtifactStore(directory)  # a second process would do this
    writer.put("k" * 64, "payload\nwith\nnewlines", level="none")
    assert reader.get("k" * 64, "none") == "payload\nwith\nnewlines"


def test_artifact_store_corrupt_header_is_a_miss(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    store.put("deadbeef", "text", level="none")
    path = store._path("deadbeef.none")
    with open(path, "w") as handle:
        handle.write("not json\nrest")
    # the writer's memory tier still has it; a fresh reader must treat
    # the torn disk entry as a miss, not an error
    fresh = ArtifactStore(str(tmp_path / "store"))
    assert fresh.get("deadbeef", "none") is None


def test_artifact_store_memory_tier_is_bounded(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"), memory_entries=4)
    for index in range(10):
        store.put(f"key{index}", f"text{index}", level="none")
        store.get(f"key{index}", "none")
    assert len(store._memory) <= 4


def test_artifact_store_prune_and_stats(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"), max_entries=3)
    for index in range(6):
        store.put(f"key{index}", "x" * 100, level="none")
    store.prune()
    stats = store.stats()
    assert stats["entries"] <= 3
    assert stats["puts"] == 6


def _store_hammer(args):
    directory, worker = args
    store = ArtifactStore(directory)
    for index in range(30):
        key = f"key{index % 7}"
        store.put(key, f"text for {key}", level="none")
        text = store.get(key, "none")
        if text is not None and text != f"text for {key}":
            return f"corrupt read: {text!r}"
        if worker == 0 and index % 10 == 9:
            store.clear()  # adversarial: yank files out from under peers
    return None


def test_artifact_store_concurrent_writers_do_not_corrupt(tmp_path):
    directory = str(tmp_path / "store")
    with ProcessPoolExecutor(max_workers=3) as pool:
        failures = [f for f in pool.map(_store_hammer,
                                        [(directory, w) for w in range(3)]) if f]
    assert failures == []


# -- pass-cache hardening (satellite 1) ------------------------------------------


def test_atomic_write_text_survives_directory_vanishing(tmp_path):
    directory = str(tmp_path / "cache")
    os.makedirs(directory)
    path = os.path.join(directory, "entry.txt")
    os.rmdir(directory)  # a concurrent clear() removed the directory
    atomic_write_text(directory, path, "payload")  # recreates and retries
    with open(path) as handle:
        assert handle.read() == "payload"


def test_pass_cache_prune_survives_vanishing_entries(tmp_path):
    cache = PassCache(str(tmp_path / "cache"), max_entries=1)
    for index in range(5):
        cache.store(f"input {index}", "seq", f"text{index}")
    # delete a file behind the cache's back mid-scan surrogate
    removed = 0
    for name in os.listdir(cache.directory):
        os.unlink(os.path.join(cache.directory, name))
        removed += 1
        if removed == 2:
            break
    cache.prune()  # must not raise
    assert cache.stats()["entries"] <= 1


# -- client connect retry (satellite 2) ------------------------------------------


def test_client_connect_retries_until_listener_appears(tmp_path):
    path = str(tmp_path / "late.sock")

    def late_listener():
        time.sleep(0.3)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)
        conn, _ = server.accept()
        time.sleep(0.2)
        conn.close()
        server.close()

    thread = threading.Thread(target=late_listener, daemon=True)
    thread.start()
    # no retries: the socket file does not exist yet -> immediate failure
    with pytest.raises(OSError):
        DaemonClient(path, timeout=1.0)
    # bounded backoff rides out the startup window
    client = DaemonClient(path, timeout=1.0, connect_retries=8)
    client.close()
    thread.join()


def test_client_connect_retries_are_bounded(tmp_path):
    path = str(tmp_path / "never.sock")
    started = time.monotonic()
    with pytest.raises(FileNotFoundError):
        DaemonClient(path, timeout=1.0, connect_retries=2)
    assert time.monotonic() - started < 1.0


def test_fleet_serve_exits_after_a_shutdown_request(tmp_path):
    """``repro fleet serve`` ends, as ``repro serve`` does, once its
    gateway has answered a ``shutdown`` request."""
    path = str(tmp_path / "gateway.sock")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "serve", "--socket", path,
         "--shards", "1", "--store-dir", str(tmp_path / "store"),
         "--cache-dir", str(tmp_path / "cache")],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        with DaemonClient(path, timeout=30.0, connect_retries=12) as client:
            assert client.request({"op": "shutdown"})["stopping"]
        _, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
    assert process.returncode == 0
    assert "counters:" in err  # the metrics table, printed on the way out


# -- labeled metrics + merge (satellite 3) ---------------------------------------


def test_metrics_labeled_histograms_in_snapshot():
    metrics = Metrics(extra_counters=("custom_total",))
    metrics.inc("custom_total")
    metrics.observe_labeled("tier", "1", 0.002)
    metrics.observe_labeled("tier", "2", 0.020)
    metrics.observe_labeled("tenant", "ci", 0.004)
    snap = metrics.snapshot()
    assert snap["counters"]["custom_total"] == 1
    by = snap["latency_by"]
    assert set(by["tier"]) == {"1", "2"}
    assert by["tier"]["1"]["count"] == 1
    assert by["tenant"]["ci"]["mean_ms"] == pytest.approx(4.0, rel=0.2)


def test_merge_snapshots_sums_and_bounds():
    a = {"counters": {"replies_ok": 3, "dedup_hits": 1},
         "latency": {"count": 2, "mean_ms": 10.0, "p50_ms": 9.0,
                     "p99_ms": 12.0, "max_ms": 12.0},
         "cache": {"hits": 4, "misses": 1}}
    b = {"counters": {"replies_ok": 5},
         "latency": {"count": 6, "mean_ms": 2.0, "p50_ms": 1.0,
                     "p99_ms": 30.0, "max_ms": 31.0},
         "cache": {"hits": 0, "misses": 5}}
    merged = merge_snapshots([a, b])
    assert merged["sources"] == 2
    assert merged["counters"] == {"replies_ok": 8, "dedup_hits": 1}
    lat = merged["latency"]
    assert lat["count"] == 8
    assert lat["mean_ms"] == pytest.approx(4.0)  # (2*10 + 6*2) / 8
    assert lat["p99_ms"] == 30.0 and lat["max_ms"] == 31.0
    assert merged["cache"]["hits"] == 4
    assert merged["cache"]["hit_ratio"] == pytest.approx(0.4)
    assert merge_snapshots([])["latency"]["count"] == 0


# -- gateway end-to-end ----------------------------------------------------------


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fleet")
    config = FleetConfig(
        socket_path=str(tmp / "gateway.sock"),
        shards=2,
        runtime_dir=str(tmp / "run"),
        store_dir=str(tmp / "store"),
        cache_dir=str(tmp / "cache"),
        quotas={"tiny": (0.001, 2.0)},
    )
    with pytest.MonkeyPatch.context() as patch:
        # background upgrades wait less for foreground traffic
        patch.setattr(gateway_module, "UPGRADE_GRACE", 0.2)
        handle = FleetHandle(config)
        handle.start()
        yield handle
        handle.stop()


def _client(fleet):
    return DaemonClient(fleet.config.socket_path, timeout=60.0,
                        connect_retries=8)


def test_fleet_ping_and_bad_op(fleet):
    with _client(fleet) as client:
        reply = client.request({"op": "ping"})
        assert reply["pong"] and reply["fleet"]
        reply = client.request({"op": "sideways"})
        assert not reply["ok"]
        assert reply["error"]["kind"] == "bad-request"


def test_fleet_answers_a_malformed_line_and_reads_on(fleet):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(fleet.config.socket_path)
        sock.sendall(b'not json\n{"id": 2, "op": "ping"}\n')
        with sock.makefile("rb") as replies:
            bad, pong = replies.readline(), replies.readline()
    bad = json.loads(bad)
    assert bad["id"] is None and bad["error"]["kind"] == "bad-request"
    assert json.loads(pong) == {"id": 2, "ok": True, "pong": True, "fleet": True}


def test_fleet_tiered_replies_are_byte_identical(fleet):
    with _client(fleet) as client:
        first = client.compile("source", SOURCE, "distribution")
        assert first["tier"] == 1
        assert first["level"] == "none"
        assert first["ir"] == direct("source", SOURCE, "none")
        # the background upgrade lands the O2 artifact in the store
        deadline = time.monotonic() + 30.0
        while True:
            again = client.compile("source", SOURCE, "distribution")
            if again["tier"] == 2:
                break
            assert time.monotonic() < deadline, "upgrade never landed"
            time.sleep(0.05)
        assert again["served_from"] == "store"
        assert again["level"] == "distribution"
        assert again["ir"] == direct("source", SOURCE, "distribution")


def test_fleet_store_holds_o2_bytes(fleet):
    # runs after the tiered test: the store must hold the upgraded text
    store = ArtifactStore(fleet.config.store_dir)
    key = protocol.request_key("source", SOURCE, "distribution", "final")
    assert store.get(key, "distribution") == direct(
        "source", SOURCE, "distribution"
    )


def test_fleet_requested_level_none_is_not_tiered(fleet):
    with _client(fleet) as client:
        reply = client.compile("source", SOURCE, "none")
        assert reply["tier"] == 2  # "none" *is* the requested level
        assert reply["ir"] == direct("source", SOURCE, "none")


def test_fleet_dedups_across_clients(fleet):
    src = SOURCE.replace("triple", "dedup_me")
    expected = direct("source", src, "distribution", "off")
    before = None
    with _client(fleet) as client:
        before = client.stats()["gateway"]["counters"]["gateway_dedup_hits"]
    results = []
    barrier = threading.Barrier(2)

    def racer():
        with _client(fleet) as client:
            barrier.wait()
            reply = client.compile("source", src, "distribution", "off",
                                   no_store=True)
            results.append(reply["ir"])

    threads = [threading.Thread(target=racer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [expected, expected]
    with _client(fleet) as client:
        after = client.stats()["gateway"]["counters"]["gateway_dedup_hits"]
    # the slower twin joined the in-flight compile instead of re-running
    assert after >= before  # racy overlap is likely but not guaranteed


def test_fleet_quota_sheds_batch_tenant(fleet):
    with _client(fleet) as client:
        # tenant "tiny": burst 2, effectively no refill
        client.compile("source", SOURCE, "none", tenant="tiny",
                       priority="batch")
        client.compile("source", SOURCE, "none", tenant="tiny",
                       priority="batch")
        with pytest.raises(DaemonError) as err:
            client.compile("source", SOURCE, "none", tenant="tiny",
                           priority="batch")
        assert err.value.kind == "quota-exceeded"
        snap = client.stats()["gateway"]["quotas"]
        assert snap["tiny"]["denied"] >= 1


def test_fleet_rejects_bad_requests(fleet):
    with _client(fleet) as client:
        reply = client.request({"op": "compile", "source": SOURCE,
                                "level": "warp-speed"})
        assert reply["error"]["kind"] == "bad-request"
        reply = client.request({"op": "compile", "source": SOURCE,
                                "priority": "vip"})
        assert reply["error"]["kind"] == "bad-request"
        reply = client.request({"op": "compile", "source": SOURCE,
                                "tenant": "  "})
        assert reply["error"]["kind"] == "bad-request"


def test_fleet_stats_shape(fleet):
    with _client(fleet) as client:
        stats = client.stats()
    gateway = stats["gateway"]
    assert set(gateway["counters"]) >= {"store_hits", "tier1_replies",
                                        "upgrades_done", "shard_restarts"}
    assert gateway["topology"]["tier1_level"] == "none"
    assert len(gateway["topology"]["shards"]) == 2
    assert gateway["store"]["puts"] >= 1
    assert stats["merged"]["sources"] >= 1
    assert stats["merged"]["counters"].get("replies_ok", 0) >= 1
    assert set(stats["shards"]) == {"shard-0", "shard-1"}


def test_fleet_compile_errors_propagate(fleet):
    with _client(fleet) as client:
        with pytest.raises(DaemonError) as err:
            client.compile("source", "routine broken(", "none")
        assert err.value.kind == "compile-error"


# keep last: SIGKILLs a shard and leans on the supervisor respawn
def test_fleet_failover_survives_shard_kill(fleet):
    sources = [SOURCE.replace("triple", f"failover{i}") for i in range(6)]
    expected = [direct("source", src, "baseline") for src in sources]
    fleet.kill_shard(0)
    with _client(fleet) as client:
        for src, want in zip(sources, expected):
            reply = client.compile("source", src, "baseline", no_store=True)
            assert reply["ir"] == want
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if fleet.gateway.shards[0].alive():
            break
        time.sleep(0.1)
    assert fleet.gateway.shards[0].alive(), "supervisor did not respawn"
    assert fleet.gateway.shards[0].generation == 2
    # the respawned shard serves traffic again
    with _client(fleet) as client:
        reply = client.compile("source", SOURCE, "none")
        assert reply["ir"] == direct("source", SOURCE, "none")
        counters = client.stats()["gateway"]["counters"]
    assert counters["shard_restarts"] >= 1
