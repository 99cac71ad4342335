"""Compile-service tests: protocol, scheduling, faults, cache bounds.

The daemon tests run a real :class:`~repro.service.daemon.CompileDaemon`
on a Unix socket with forked workers — small corpora keep them fast.
The concurrent-PassCache regression tests (atomic write-rename under
simultaneous writers) live here alongside the crash-injection and dedup
tests, per the service hardening work.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.suite import suite_routines
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload
from repro.pm.cache import PassCache, cache_key
from repro.service import protocol
from repro.service.client import DaemonClient, DaemonError
from repro.service.daemon import CompileDaemon, DaemonConfig
from repro.service.faults import (
    FaultInjected,
    OverloadedError,
    RetryPolicy,
    maybe_trigger,
    validate_fault,
)
from repro.service.metrics import LatencyHistogram, Metrics
from repro.service.scheduler import Scheduler
from repro.service.workers import WorkerConfig, WorkerPool
from repro.store import RESCAN_SHARE, ContentStore, seal

SOURCE = """
routine triple(x: int) -> int
  return 3 * x
end
"""

SOURCE2 = """
routine quad(x: int) -> int
  return 4 * x + x * 0
end
"""


def direct(kind, text, level="distribution", verify="final"):
    return print_module(compile_payload(kind, text, level, verify))


# -- protocol ------------------------------------------------------------------


def test_protocol_roundtrip():
    message = {"id": 7, "op": "compile", "source": SOURCE, "level": "partial"}
    assert protocol.decode(protocol.encode(message).strip()) == message


def test_validate_compile_normalizes_wire_shape():
    request = protocol.validate_compile({"op": "compile", "source": SOURCE})
    assert request["kind"] == "source"
    assert request["level"] == "distribution"
    assert request["verify"] == "final"
    request = protocol.validate_compile({"op": "compile", "ir": "x", "level": "none"})
    assert request["kind"] == "ir"


@pytest.mark.parametrize(
    "message",
    [
        {"op": "compile"},
        {"op": "compile", "source": ""},
        {"op": "compile", "source": "x", "level": "turbo"},
        {"op": "compile", "source": "x", "verify": "sometimes"},
        {"op": "compile", "kind": "wasm", "text": "x"},
        {"op": "compile", "source": "x", "fault": "crash"},
    ],
)
def test_validate_compile_rejects(message):
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_compile(message)


def test_request_key_ignores_fault_but_not_level():
    key = protocol.request_key("source", SOURCE, "partial", "final")
    assert key == protocol.request_key("source", SOURCE, "partial", "final")
    assert key != protocol.request_key("source", SOURCE, "baseline", "final")
    assert key != protocol.request_key("ir", SOURCE, "partial", "final")


# -- faults + metrics ----------------------------------------------------------


def test_retry_policy_backoff_caps():
    policy = RetryPolicy(max_attempts=5, backoff=0.1, backoff_cap=0.3)
    assert policy.ceiling(1) == pytest.approx(0.1)
    assert policy.ceiling(2) == pytest.approx(0.2)
    assert policy.ceiling(4) == pytest.approx(0.3)
    # full jitter: each delay is drawn from [0, ceiling]
    for attempt in (1, 2, 4):
        for _ in range(20):
            assert 0.0 <= policy.delay(attempt) <= policy.ceiling(attempt)


def test_fault_validation_and_triggering():
    fault = validate_fault({"kind": "error", "attempts": 2})
    with pytest.raises(FaultInjected):
        maybe_trigger(fault, 0)
    maybe_trigger(fault, 2)  # past its attempt budget: a no-op
    maybe_trigger(None, 0)
    with pytest.raises(ValueError):
        validate_fault({"kind": "meteor"})


def test_latency_histogram_percentiles():
    hist = LatencyHistogram()
    for ms in range(1, 101):
        hist.observe(ms / 1e3)
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["p50_ms"] == pytest.approx(50, abs=2)
    assert snap["p99_ms"] == pytest.approx(99, abs=2)
    assert snap["max_ms"] == pytest.approx(100, abs=1)


def test_latency_histogram_falls_back_to_bucket_bounds_past_its_cap(
    monkeypatch,
):
    import repro.service.metrics as metrics_module

    monkeypatch.setattr(metrics_module, "_SAMPLE_CAP", 10)
    hist = LatencyHistogram()
    # 90 requests at 1 ms and 10 at 50 ms: past the cap, so quantiles
    # are the upper bounds of the buckets holding their ranks
    samples = [0.001] * 90 + [0.050] * 10
    for seconds in samples:
        hist.observe(seconds)
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["mean_ms"] == pytest.approx(sum(samples) / 100 * 1e3, abs=1e-3)
    assert snap["max_ms"] == 50.0
    bounds = metrics_module._BUCKET_BOUNDS
    assert snap["p50_ms"] == round(bounds[4] * 1e3, 3) == 1.6  # 0.8 < 1 <= 1.6
    assert snap["p99_ms"] == round(bounds[9] * 1e3, 3) == 51.2  # 25.6 < 50 <= 51.2


def test_metrics_snapshot_schema():
    metrics = Metrics()
    metrics.inc("requests_total", 3)
    snap = metrics.snapshot()
    assert snap["counters"]["requests_total"] == 3
    assert set(snap) >= {"uptime_seconds", "counters", "latency", "cache", "passes"}


# -- PassCache bounds (satellite) ----------------------------------------------


def _fill(cache, tag):
    cache.store(f"input {tag}", "fp", f"optimized {tag}")
    return cache_key(f"input {tag}", "fp")


def test_cache_lru_eviction_by_access_order(tmp_path):
    cache = PassCache(str(tmp_path), max_entries=2)
    old = time.time() - 1000
    key_a = _fill(cache, "a")
    os.utime(cache._path(key_a), (old, old))
    key_b = _fill(cache, "b")
    os.utime(cache._path(key_b), (old + 100, old + 100))
    key_c = _fill(cache, "c")  # store triggers the prune
    assert not os.path.exists(cache._path(key_a))
    assert os.path.exists(cache._path(key_b))
    assert os.path.exists(cache._path(key_c))
    assert cache.evictions == 1


def test_cache_lookup_refreshes_recency(tmp_path):
    cache = PassCache(str(tmp_path), max_entries=2)
    old = time.time() - 1000
    key_a = _fill(cache, "a")
    key_b = _fill(cache, "b")
    for key, stamp in ((key_a, old), (key_b, old + 100)):
        os.utime(cache._path(key), (stamp, stamp))
    # a disk hit from a *fresh* cache touches the file, making A newest
    assert PassCache(str(tmp_path)).lookup("input a", "fp") == "optimized a"
    _fill(cache, "c")
    assert os.path.exists(cache._path(key_a))
    assert not os.path.exists(cache._path(key_b))


def test_cache_byte_cap_and_stats(tmp_path):
    payload = "x" * 1000
    cache = PassCache(str(tmp_path), max_bytes=2500)
    for index in range(4):
        cache.store(f"in{index}", "fp", payload)
        time.sleep(0.01)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] <= 2500
    cache.clear()
    assert cache.stats()["entries"] == 0


def test_cache_memory_tier_is_bounded():
    # an entry cap, and a byte cap that holds two 11-byte payloads
    for caps in ({"max_entries": 2}, {"max_bytes": 2 * len("optimized a")}):
        cache = PassCache(**caps)
        for tag in "abcd":
            cache.store(f"input {tag}", "fp", f"optimized {tag}")
        assert len(cache) == 2, caps
        assert cache.lookup("input d", "fp") == "optimized d"
        assert cache.lookup("input a", "fp") is None


# -- capped puts list the directory only near a cap ------------------------------


def _count_scans(monkeypatch) -> list:
    """Log every ``ContentStore._scan`` (the listing a prune makes)."""
    scans = []
    scan = ContentStore._scan

    def counted(self):
        scans.append(self.directory)
        return scan(self)

    monkeypatch.setattr(ContentStore, "_scan", counted)
    return scans


def test_capped_puts_far_below_the_cap_scan_at_most_once(tmp_path, monkeypatch):
    scans = _count_scans(monkeypatch)
    cache = PassCache(str(tmp_path), max_bytes=256 * 1024 * 1024,
                      max_entries=100_000)
    for index in range(500):
        _fill(cache, index)
    assert len(scans) <= 1
    assert len(os.listdir(tmp_path)) == 500
    assert cache.evictions == 0


def test_capped_puts_evict_what_pruning_after_every_put_would(
    tmp_path, monkeypatch
):
    """One writer: after every put the directory holds exactly what a
    scan-and-evict after every put would leave, with access times set by
    the test, a re-put of a held key and a disk hit from a second view."""
    scans = _count_scans(monkeypatch)
    rng = random.Random(26)
    cap = 9000
    cache = PassCache(str(tmp_path), max_bytes=cap)
    reader = PassCache(str(tmp_path))
    base = int(time.time()) - 2_000_000
    stamps = iter(rng.sample(range(1_000_000), 200))
    model = {}  # file name -> [recency, size, tag]
    oracle_evictions = 0

    def touch(name):
        stamp = base + next(stamps)
        os.utime(os.path.join(tmp_path, name), (stamp, stamp))
        model[name][0] = stamp

    for step in range(60):
        held = sorted(model, key=lambda name: model[name][2])
        if step in (25, 45):  # a second view's disk hit re-touches a file
            name = held[rng.randrange(len(held))]
            tag = model[name][2]
            assert reader.lookup(f"input {tag}", "fp").startswith(f"optimized {tag} ")
            touch(name)
        tag = model[held[len(held) // 2]][2] if step in (35, 50) else step
        payload = f"optimized {tag} " + "x" * rng.randrange(50, 400)
        cache.store(f"input {tag}", "fp", payload)
        name = cache_key(f"input {tag}", "fp") + ".iloc"
        # the oracle: the fresh file is newest, then evict oldest first
        model[name] = [float("inf"), len(seal(payload)), tag]
        total = sum(size for _, size, _ in model.values())
        for old in sorted(model, key=lambda name: model[name][0]):
            if total <= cap:
                break
            total -= model.pop(old)[1]
            oracle_evictions += 1
        assert sorted(os.listdir(tmp_path)) == sorted(model), step
        touch(name)
    assert cache.evictions == oracle_evictions > 0
    assert len(scans) < 60


@pytest.mark.parametrize("writers", [2, 4])
@pytest.mark.parametrize("order", ["in turn", "stale bursts"])
def test_writers_sharing_a_capped_directory_pass_it_by_an_eighth_each_at_most(
    tmp_path, writers, order
):
    """Each view adds up to ``1/RESCAN_SHARE`` of the headroom its own
    last scan saw before it scans again.  Putting in turn, all views
    together add at most writers/RESCAN_SHARE of that headroom before
    it scans, so up to 8 views stay within an entry each of the cap.
    In the worst order, views 1.. scan an almost empty
    directory, view 0 fills it, and then the stale views put in turn:
    together they pass the cap by about (writers - 1)/RESCAN_SHARE of
    it, until each of them has scanned at the cap."""
    payload = "x" * 300
    entry = len(seal(payload))
    cap = 100  # entries of ``entry`` bytes, under a byte cap
    views = [PassCache(str(tmp_path), max_bytes=cap * entry)
             for _ in range(writers)]
    stale = list(range(1, writers))
    turns = [] if order == "in turn" else (
        stale + [0] * (cap - writers) + stale * (cap // 4)
    )
    turns += [index % writers for index in range(2 * cap)]
    bound = cap + (writers - 1) * math.ceil(cap / RESCAN_SHARE)
    peak = 0
    for index, writer in enumerate(turns):
        views[writer].store(f"input {index}", "fp", payload)
        held = sum(
            os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)
        ) // entry
        assert held <= bound, index
        peak = max(peak, held)
    assert held == cap  # every view has scanned at the cap
    assert sum(view.evictions for view in views) > 0
    if order == "in turn":
        assert peak <= cap + writers
    else:
        assert peak > cap + writers  # the stale bursts really pass it


def test_threads_sharing_a_capped_view_count_every_put(tmp_path):
    # a long payload widens the window in which a switch can split an
    # unlocked update of the view's totals
    payload = "x" * 20_000
    entry = len(seal(payload))
    cache = PassCache(str(tmp_path), max_bytes=40 * entry)

    def put(tag):
        for index in range(250):
            cache.store(f"input {tag} {index}", "fp", payload)

    # more threads than cores, switching as often as the interpreter can
    threads = [threading.Thread(target=put, args=(tag,)) for tag in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    # a lost update would undercount, and the view could then skip a
    # prune it needs
    assert cache._written == (2000, 2000 * entry)
    held = sum(os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path))
    assert held <= 40 * entry
    assert cache.evictions == 2000 - len(os.listdir(tmp_path)) >= 1960


@pytest.mark.parametrize("sweep", ["clear", "prune"])
def test_a_sweep_by_another_view_leaves_the_estimate_safe(tmp_path, sweep):
    cache = PassCache(str(tmp_path), max_entries=12)
    for index in range(8):
        _fill(cache, index)
    getattr(PassCache(str(tmp_path), max_entries=3), sweep)()
    assert len(os.listdir(tmp_path)) == (0 if sweep == "clear" else 3)
    for index in range(8, 40):
        _fill(cache, index)
        assert len(os.listdir(tmp_path)) <= 12
    assert len(os.listdir(tmp_path)) == 12


def _hammer_cache(args):
    directory, tag, rounds = args
    cache = PassCache(directory)
    for index in range(rounds):
        cache.store("shared input", "fp", "the one true output")
        cache.store(f"input {tag} {index}", "fp", f"optimized {tag} {index}")
        got = cache.lookup("shared input", "fp")
        if got != "the one true output":
            return f"torn read: {got!r}"
    return None


def test_cache_concurrent_writers_do_not_corrupt(tmp_path):
    """Two workers compiling the same module: atomic write-rename holds."""
    with ProcessPoolExecutor(max_workers=4) as pool:
        failures = [
            failure
            for failure in pool.map(
                _hammer_cache, [(str(tmp_path), tag, 25) for tag in "abcd"]
            )
            if failure
        ]
    assert failures == []
    fresh = PassCache(str(tmp_path))
    assert fresh.lookup("shared input", "fp") == "the one true output"
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


# -- scheduler (no socket) -----------------------------------------------------


@pytest.fixture()
def scheduler():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool,
        Metrics(),
        max_pending=8,
        request_timeout=5.0,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    sched.start()
    yield sched
    sched.stop()


def test_scheduler_dedups_inflight_identical_requests(scheduler):
    slow = scheduler.submit(
        {
            "op": "compile",
            "source": SOURCE,
            "fault": {"kind": "hang", "seconds": 0.3},
        }
    )
    twin = scheduler.submit({"op": "compile", "source": SOURCE})
    first, second = slow.result(10), twin.result(10)
    assert first["ok"] and second["ok"]
    assert first["ir"] == second["ir"] == direct("source", SOURCE)
    assert second["deduped"] and not first["deduped"]
    counters = scheduler.metrics.snapshot()["counters"]
    assert counters["dedup_hits"] == 1
    # the compile ran once: one scheduled job, two replies
    assert counters["replies_ok"] == 1


def test_scheduler_batches_what_queues_behind_a_busy_worker(scheduler):
    busy = scheduler.submit(
        {
            "op": "compile",
            "source": SOURCE,
            "fault": {"kind": "hang", "seconds": 0.5},
        }
    )
    queued = [
        ("source", SOURCE, "partial"),
        ("source", SOURCE2, "distribution"),
        ("source", SOURCE2, "baseline"),
    ]
    futures = []
    for kind, text, level in queued:
        time.sleep(0.02)
        futures.append(
            scheduler.submit({"op": "compile", kind: text, "level": level})
        )
    assert busy.result(10)["ir"] == direct("source", SOURCE)
    for future, (kind, text, level) in zip(futures, queued):
        assert future.result(10)["ir"] == direct(kind, text, level)
    # the idle worker took the first job at once; the three that queued
    # behind it left together when it was free again
    counters = scheduler.metrics.snapshot()["counters"]
    assert (counters["batches"], counters["batched_jobs"]) == (2, 4)


def test_scheduler_dispatches_each_accepted_job_once_under_contention(
    monkeypatch,
):
    import repro.service.scheduler as scheduler_module

    # a small batch cap splits the pending lists under contention
    monkeypatch.setattr(scheduler_module, "MAX_BATCH", 4)
    texts = [
        f"routine f{n}(x: int) -> int\n  return {n} * x\nend\n" for n in range(8)
    ]
    requests = [(text, level) for text in texts for level in ("none", "baseline")]
    expected = {request: direct("source", *request) for request in requests}
    pool = WorkerPool(3, WorkerConfig(cache_dir=None))  # more workers than cores
    sched = Scheduler(pool, Metrics(), request_timeout=30.0)
    sched.start()
    replies, errors = [], []

    def client(offset):
        try:
            futures = [
                (request, sched.submit(
                    {"op": "compile", "source": request[0], "level": request[1]}
                ))
                for request in requests[offset:] + requests[:offset]
            ]
            replies.extend((request, f.result(30)) for request, f in futures)
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(3 * n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        sched.stop()
    assert errors == []
    assert len(replies) == 6 * len(requests)
    for request, reply in replies:
        assert reply["ir"] == expected[request]
    counters = sched.metrics.snapshot()["counters"]
    # every accepted request either joined a job or was sent exactly once
    assert counters["batched_jobs"] + counters["dedup_hits"] == len(replies)
    assert counters["replies_ok"] == counters["batched_jobs"]
    assert sched.gauges()["buffered"] == 0


def test_scheduler_stop_answers_every_accepted_job():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(pool, Metrics(), request_timeout=60.0)
    sched.start()
    wedged = sched.submit(
        {
            "op": "compile",
            "source": SOURCE,
            "fault": {"kind": "hang", "seconds": 30},
        }
    )
    deadline = time.monotonic() + 10
    while (
        not sched.metrics.snapshot()["counters"]["batches"]
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    pending = [
        sched.submit({"op": "compile", "source": SOURCE2, "level": level})
        for level in ("partial", "distribution")
    ]
    sched.stop()
    for future in [wedged, *pending]:
        reply = future.result(5)
        assert not reply["ok"]
        assert reply["error"] == {
            "kind": "worker-crash",
            "message": "daemon shutting down",
        }


def test_scheduler_sheds_load_when_full():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(pool, Metrics(), max_pending=1, request_timeout=5.0)
    sched.start()
    try:
        hung = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "hang", "seconds": 0.5},
            }
        )
        with pytest.raises(OverloadedError):
            sched.submit({"op": "compile", "source": SOURCE2})
        assert sched.metrics.snapshot()["counters"]["overloaded"] == 1
        assert hung.result(10)["ok"]
    finally:
        sched.stop()


def test_scheduler_times_out_wedged_requests():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool,
        Metrics(),
        request_timeout=0.6,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    sched.start()
    try:
        wedged = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "hang", "seconds": 30, "attempts": 5},
            }
        )
        reply = wedged.result(15)
        assert not reply["ok"]
        assert reply["error"]["kind"] == "timeout"
        assert sched.metrics.snapshot()["counters"]["timeouts"] >= 1
        # the shard healed: a fresh worker answers the next request
        again = sched.submit({"op": "compile", "source": SOURCE2})
        assert again.result(15)["ir"] == direct("source", SOURCE2)
    finally:
        sched.stop()


def test_every_worker_respawn_counts_once():
    """A worker killed for a timeout and one SIGKILLed while idle each
    add exactly one to the stats reply's one restart count."""
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool,
        Metrics(),
        request_timeout=1.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    sched.start()

    def restarts():
        return sched.metrics.snapshot(sched)["scheduler"]["worker_restarts"]

    try:
        assert restarts() == 0
        wedged = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "hang", "seconds": 30, "attempts": 5},
            }
        )
        assert wedged.result(15)["error"]["kind"] == "timeout"
        # the killed worker is respawned when the next batch is due
        assert sched.submit({"op": "compile", "source": SOURCE2}).result(15)["ok"]
        assert restarts() == 1
        victim = pool.get(0)
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(5)
        again = sched.submit({"op": "compile", "source": SOURCE, "level": "none"})
        assert again.result(15)["ok"]
        assert restarts() == 2
        assert "worker_restarts" not in sched.metrics.snapshot()["counters"]
    finally:
        sched.stop()


def test_scheduler_exhausts_retries_into_structured_error():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool, Metrics(), request_timeout=20.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    sched.start()
    try:
        doomed = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "crash", "attempts": 99},
            }
        )
        reply = doomed.result(30)
        assert not reply["ok"]
        assert reply["error"]["kind"] == "worker-crash"
        assert sched.metrics.snapshot()["counters"]["worker_crashes"] >= 2
    finally:
        sched.stop()


# -- daemon end to end ---------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    config = DaemonConfig(
        socket_path=str(tmp_path / "d.sock"),
        workers=2,
        cache_dir=str(tmp_path / "cache"),
        request_timeout=30.0,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    instance = CompileDaemon(config)
    instance.start()
    yield instance
    instance.stop()


def test_daemon_replies_byte_identical_to_direct_compiles(daemon):
    """Pipelining, warm replay and stats; tests/test_serving_paths.py
    checks every path's bytes against the direct compile."""
    corpus = [
        ("source", routine.source, level)
        for routine in suite_routines()[:3]
        for level in ("baseline", "distribution")
    ]
    with DaemonClient(daemon.config.socket_path) as client:
        # pipelined sends force batching; replies may arrive out of order
        rids = [
            client.send(protocol.compile_request(kind, text, level))
            for kind, text, level in corpus
        ]
        pipelined = [client.wait(rid) for rid in rids]
        assert all(reply["ok"] for reply in pipelined), pipelined
        # warm in-worker caches: each request alone replays the bytes
        # its pipelined twin got, so no reply went to the wrong id
        for reply, request in zip(pipelined, corpus):
            assert client.compile(*request)["ir"] == reply["ir"]
        stats = client.stats()
    assert stats["counters"]["replies_ok"] == 2 * len(corpus)
    assert stats["cache"]["hits"] >= 1
    assert stats["scheduler"]["workers"] == 2


def test_daemon_survives_injected_worker_crash(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        reply = client.compile(
            "source", SOURCE, "partial", fault={"kind": "crash", "attempts": 1}
        )
        assert reply["ir"] == direct("source", SOURCE, "partial")
        assert reply["attempts"] == 2
        stats = client.stats()
    assert stats["counters"]["worker_crashes"] == 1
    assert stats["counters"]["retries"] == 1
    assert stats["counters"]["replies_error"] == 0


def test_daemon_structured_errors_and_ping(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        assert client.ping()
        with pytest.raises(DaemonError) as excinfo:
            client.compile("source", "routine broken(")
        assert excinfo.value.kind == "compile-error"
        with pytest.raises(DaemonError) as excinfo:
            client.compile("source", SOURCE, fault={"kind": "error"})
        assert excinfo.value.kind == "injected-error"
        reply = client.request({"op": "compile", "level": "warp-9"})
        assert reply["error"]["kind"] == "bad-request"


def test_daemon_answers_a_malformed_line_and_reads_on(daemon):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(daemon.config.socket_path)
        sock.sendall(b'not json\n{"id": 2, "op": "ping"}\n')
        with sock.makefile("rb") as replies:
            bad, pong = replies.readline(), replies.readline()
    bad = json.loads(bad)
    assert bad["id"] is None and bad["error"]["kind"] == "bad-request"
    assert pong, "the daemon closed the connection after the malformed line"
    assert json.loads(pong) == {"id": 2, "ok": True, "pong": True}


def test_daemon_closes_a_connection_on_an_overlong_line(daemon, monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE", 64)
    for line in (
        protocol.encode({"id": 1, "op": "ping", "pad": "x" * 100}),
        b"x" * 200,  # no newline yet
    ):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(daemon.config.socket_path)
            sock.sendall(line)
            assert sock.recv(4096) == b""  # closed, unanswered
    with DaemonClient(daemon.config.socket_path) as client:
        assert client.ping()  # short lines still pass


def test_daemon_shutdown_request(tmp_path):
    config = DaemonConfig(
        socket_path=str(tmp_path / "s.sock"), workers=1, cache_dir=None
    )
    instance = CompileDaemon(config)
    instance.start()
    with DaemonClient(config.socket_path) as client:
        client.shutdown()
    deadline = time.monotonic() + 10
    while instance._started and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not instance._started
    assert not os.path.exists(config.socket_path)


def test_daemon_refuses_to_double_bind(daemon):
    with pytest.raises(RuntimeError, match="already listening"):
        CompileDaemon(
            DaemonConfig(
                socket_path=daemon.config.socket_path, workers=1, cache_dir=None
            )
        ).start()


# -- client fallback + CLI -----------------------------------------------------


def test_cli_compile_daemon_flag_falls_back(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    assert main(["compile", str(path), "--level", "partial"]) == 0
    plain = capsys.readouterr().out
    assert (
        main(
            [
                "compile",
                str(path),
                "--level",
                "partial",
                "--daemon",
                "--daemon-socket",
                str(tmp_path / "no.sock"),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == plain


def test_cli_compile_fleet_fallback_stays_in_process(
    daemon, tmp_path, monkeypatch, capsys
):
    """``--fleet`` with no gateway answers in-process; it must not hand
    the request to a daemon that happens to be listening."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_DAEMON_SOCKET", daemon.config.socket_path)
    monkeypatch.setenv("REPRO_FLEET_SOCKET", str(tmp_path / "no-gateway.sock"))
    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    assert main(["compile", str(path), "--level", "partial"]) == 0
    plain = capsys.readouterr().out
    assert main(["compile", str(path), "--level", "partial", "--fleet"]) == 0
    assert capsys.readouterr().out == plain
    with DaemonClient(daemon.config.socket_path) as client:
        assert client.stats()["counters"]["requests_total"] == 0


def test_cli_compile_daemon_fallback_reports_a_compile_error(tmp_path, capsys):
    """With no daemon, a program that does not parse gets the line and
    the exit status a daemon's ``compile-error`` reply gets."""
    from repro.cli import main

    path = tmp_path / "broken.f"
    path.write_text("routine broken(")
    assert main(["compile", str(path), "--daemon", "--daemon-socket",
                 str(tmp_path / "no.sock")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if "compile-error" in line]
    assert errors == [
        "compile: daemon error [compile-error]: ParseError: line 1: "
        "expected 'ID', found 'NEWLINE'"
    ]
    assert "Traceback" not in captured.err


def test_cli_compile_ir_input(tmp_path, capsys):
    from repro.cli import main

    source_path = tmp_path / "prog.f"
    source_path.write_text(SOURCE)
    assert main(["compile", str(source_path), "--level", "none"]) == 0
    ir_text = capsys.readouterr().out
    ir_path = tmp_path / "prog.iloc"
    ir_path.write_text(ir_text)
    assert main(["compile", str(ir_path), "--ir", "--level", "distribution"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == direct(
        "ir", ir_text, "distribution"
    )


def test_cli_cache_subcommand(tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    cache = PassCache(cache_dir)
    for tag in "ab":
        cache.store(f"input {tag}", "fp", f"optimized {tag}")
    assert main(["cache", "stats", "--dir", cache_dir]) == 0
    assert "2 entries" in capsys.readouterr().out
    assert main(["cache", "prune", "--dir", cache_dir, "--max-entries", "1"]) == 0
    assert "evicted 1" in capsys.readouterr().out
    assert main(["cache", "clear", "--dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", cache_dir]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cli_keyboard_interrupt_is_clean(monkeypatch, capsys):
    from repro import cli

    def boom(options):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_passes", boom)
    assert cli.main(["passes"]) == 130
    assert "interrupted" in capsys.readouterr().err


# -- bench serve building blocks -----------------------------------------------


def test_bench_corpus_is_deterministic():
    from repro.bench.serve import build_corpus

    first, second = build_corpus(quick=True), build_corpus(quick=True)
    assert first == second
    # fuzz CFGs ride along as IR (tests/test_serving_paths.py compiles
    # fuzz_cfg_source's output on every path)
    assert sum(1 for entry in first if entry["kind"] == "ir") >= 3


def test_bench_driver_counts_a_failed_request_as_wrong_and_keeps_going(
    daemon, monkeypatch, tmp_path
):
    import repro.bench.serve as serve_bench

    # one client, so the request after the error reply reuses its connection
    monkeypatch.setattr(serve_bench, "CLIENTS", 1)
    corpus = serve_bench.build_corpus(quick=True)[:4]
    work = [
        (
            dict(request, fault={"kind": "error", "attempts": 1})
            if index == 0 else request,
            {2: direct(request["kind"], request["text"], request["level"],
                       request["verify"])},
        )
        for index, request in enumerate(corpus)
    ]
    latencies, wrong = serve_bench.drive(daemon.config.socket_path, work)
    assert wrong == 1
    assert len(latencies[2]) == 3  # the other three, each equal to direct

    # no daemon behind the socket: the client never connects, so no job
    # is taken, and every one of them counts as wrong
    latencies, wrong = serve_bench.drive(str(tmp_path / "absent.sock"), work)
    assert (latencies, wrong) == ({}, len(work))


def test_bench_chaos_records_an_error_reply_as_a_failed_request(
    tmp_path, monkeypatch
):
    from repro.bench.chaos import service_chaos

    compile_request = DaemonClient.compile

    def compile_with_error(self, kind, text, level="distribution",
                           verify="final", **kwargs):
        if level == "baseline":  # the requests after the worker kill
            kwargs["fault"] = {"kind": "error", "attempts": 1}
        return compile_request(self, kind, text, level, verify, **kwargs)

    monkeypatch.setattr(DaemonClient, "compile", compile_with_error)
    routines = suite_routines()[:4]
    section = service_chaos(
        routines, str(tmp_path), str(tmp_path / "incidents")
    )
    failed = section["failed_requests"]
    assert [entry.split(":")[0] for entry in failed] == [
        f"post-kill {routine.name}" for routine in routines
    ]
    assert section["wrong_replies"] == []
    assert section["quarantined_replies"] == 1
