"""The fleet gateway: one asyncio front door over N daemon shards.

Request path (``op: compile``)::

    client ──> gateway ──(tenant token bucket)──┐
                                                ▼
                      artifact store (O2 hit?) ──> reply tier 2, "store"
                                │ miss
                      artifact store (O1 hit?) ──> reply tier 1, "store"
                                │ miss              + background O2 upgrade
                      rendezvous-hash shard ─────> reply tier 1, "shard"
                      (compile O1, store it)        + background O2 upgrade

A *tiered* request (the requested level is heavier than the O1 level,
:data:`TIER1_LEVEL`) is answered as fast as the O1 pipeline allows
while the full compile runs in the background and lands in the store;
the next request for the same key gets the O2 text.  Replies always carry ``tier`` (1 =
fast answer, 2 = the requested level), the ``level`` actually compiled
and ``served_from`` — and every reply is byte-identical to a direct
``repro compile`` at its stated level, because shards *are* compile
daemons and the store holds their IR text verbatim, per request key
and level.  The requested-level reply, the tier-1 answer and the
background upgrade all go through one store-or-compile routine
(:meth:`FleetGateway._store_or_compile`): a store lookup, else one
deduped shard compile, stored unless degraded.  Every store lookup
counts one ``store_hits`` or one ``store_misses``.

Routing is rendezvous hashing (:mod:`.hashring`) on the request key
over the currently-live shard slots: a shard loss remaps only that
shard's keys, and the ranked order doubles as the deterministic
failover sequence.  The supervisor coroutine respawns dead shards in
place (same slot id, same socket, bumped generation), and because the
artifact store and the shards' pass cache are shared directories, a
remapped or respawned shard serves warm keys it never compiled.

Everything here is a single-threaded asyncio process; the only
blocking work is small-file store I/O.  Compiles are deduped in flight
at the gateway (two clients, one key, one shard compile) on top of the
per-shard scheduler dedup.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.pm.cache import ArtifactStore
from repro.pm.manager import cacheable
from repro.service import protocol
from repro.service.daemon import DaemonConfig
from repro.service.faults import RetryPolicy
from repro.service.fleet import hashring
from repro.service.fleet.quota import QuotaManager
from repro.service.fleet.shards import ShardProcess, spawn_shards
from repro.service.metrics import Metrics, merge_snapshots

#: Every counter the gateway bumps: the request and reply totals it
#: shares with the daemon's schema, then its own.
GATEWAY_COUNTERS = (
    "requests_total",
    "replies_ok",
    "replies_error",
    "overloaded",
    "store_hits",
    "store_misses",
    "store_writes",
    "replies_store",
    "replies_shard",
    "tier1_replies",
    "tier2_replies",
    "upgrades_started",
    "upgrades_done",
    "upgrades_failed",
    "gateway_dedup_hits",
    "quota_denied",
    "quota_delayed",
    "shard_failovers",
    "shard_restarts",
    "shard_crash_loops",
)

#: The fast tier: ``"none"`` answers with validated unoptimized IR (the
#: classic tier-0 move) while the requested level compiles behind it.
TIER1_LEVEL = "none"

#: Concurrent background upgrade compiles.
MAX_UPGRADES = 2

#: Background upgrades yield to foreground shard traffic for up to this
#: many seconds before compiling anyway (anti-starvation).
UPGRADE_GRACE = 2.0

#: Supervisor respawn policy: the first respawn of a dead shard is
#: immediate; each consecutive death without a stable period in between
#: doubles the backoff ceiling (full jitter, capped), and after
#: ``max_attempts`` consecutive deaths the slot stops respawning — a
#: crash-looping shard must not burn the host while the rest of the
#: fleet serves.
RESPAWN = RetryPolicy(max_attempts=5, backoff=0.2, backoff_cap=5.0)

#: Seconds of continuous liveness that clear a shard's death streak.
RESPAWN_RESET = 5.0


class ShardUnavailable(Exception):
    """The shard's socket is gone/refusing/returning EOF right now."""


@dataclass
class FleetConfig:
    """Every ``repro fleet serve`` knob."""

    socket_path: str = field(
        default_factory=lambda: protocol.default_socket_path("fleet")
    )
    shards: int = 2
    workers_per_shard: int = 1
    runtime_dir: Optional[str] = None
    store_dir: str = ".repro_store"
    store_max_bytes: Optional[int] = 512 * 1024 * 1024
    cache_dir: Optional[str] = ".repro_cache"
    #: answer cold requests at :data:`TIER1_LEVEL` first
    tiering: bool = True
    request_timeout: float = 60.0
    quota_rate: float = 200.0
    quota_burst: float = 400.0
    #: tenant → (rate, burst) overrides.
    quotas: dict = field(default_factory=dict)


class ShardLink:
    """One multiplexed asyncio connection to a shard daemon.

    Requests get gateway-side ids; a single reader task resolves the
    matching futures as frames arrive (shards reply out of order).  A
    broken connection fails every pending request with
    :class:`ShardUnavailable` — the router treats that as "try the next
    shard in rendezvous order", so a SIGKILLed shard costs a failover,
    never a wrong or dropped reply.
    """

    def __init__(self, shard: ShardProcess) -> None:
        self.shard = shard
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._conn_lock = asyncio.Lock()

    async def request(self, message: dict, timeout: float) -> dict:
        await self._ensure_connected()
        loop = asyncio.get_running_loop()
        self._next_id += 1
        rid = self._next_id
        future: asyncio.Future = loop.create_future()
        self._pending[rid] = future
        writer = self._writer
        try:
            writer.write(protocol.encode({**message, "id": rid}))
            await writer.drain()
        except (ConnectionError, OSError) as error:
            self._pending.pop(rid, None)
            self._drop_connection()
            raise ShardUnavailable(str(error)) from None
        try:
            return await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(rid, None)

    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_unix_connection(
                        self.shard.socket_path, limit=protocol.MAX_LINE
                    ),
                    timeout=2.0,
                )
            except (OSError, asyncio.TimeoutError) as error:
                raise ShardUnavailable(
                    f"{self.shard.shard_id}: {error}"
                ) from None
            self._writer = writer
            self._reader_task = asyncio.create_task(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except ValueError:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self._drop_connection()

    def _drop_connection(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ShardUnavailable(f"{self.shard.shard_id}: connection lost")
                )

    def reset(self) -> None:
        """Tear the connection down (the shard died or respawned)."""
        self._drop_connection()
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None


class FleetGateway:
    """The asyncio gateway process: routing, tiering, quotas, stats."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config if config is not None else FleetConfig()
        if self.config.runtime_dir is None:
            self.config.runtime_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        os.makedirs(self.config.runtime_dir, exist_ok=True)
        self.metrics = Metrics(GATEWAY_COUNTERS)
        self.store = ArtifactStore(
            self.config.store_dir, max_bytes=self.config.store_max_bytes
        )
        self.quotas = QuotaManager(
            default_rate=self.config.quota_rate,
            default_burst=self.config.quota_burst,
            overrides=self.config.quotas,
        )
        self.shards: list[ShardProcess] = []
        self._links: dict[str, ShardLink] = {}
        self._inflight: dict[str, asyncio.Task] = {}
        self._upgrading: set[str] = set()
        self._background: set[asyncio.Task] = set()
        self._clients: set[asyncio.Task] = set()
        self._client_writers: set[asyncio.StreamWriter] = set()
        self._foreground = 0  # client compiles not yet answered
        self._supervisor_state: dict = {}
        self._stop: Optional[asyncio.Event] = None
        self._upgrade_sem: Optional[asyncio.Semaphore] = None

    # -- lifecycle ---------------------------------------------------------------

    def spawn_shards(self) -> None:
        """Fork the shard set.  Call before the event loop has threads."""
        if self.shards:
            return
        self.shards = spawn_shards([
            DaemonConfig(
                socket_path=os.path.join(
                    self.config.runtime_dir, f"shard-{index}.sock"
                ),
                workers=self.config.workers_per_shard,
                max_pending=1024,
                request_timeout=60.0,
                cache_dir=self.config.cache_dir,
            )
            for index in range(max(1, self.config.shards))
        ])

    async def run(self, on_ready: Optional[Callable[[], None]] = None) -> None:
        """Serve until ``shutdown``/stop; owns shard supervision."""
        self.spawn_shards()
        self._stop = asyncio.Event()
        self._upgrade_sem = asyncio.Semaphore(MAX_UPGRADES)
        self._links = {
            shard.shard_id: ShardLink(shard) for shard in self.shards
        }
        protocol.claim_socket(self.config.socket_path)
        server = await asyncio.start_unix_server(
            self._serve_client, path=self.config.socket_path,
            limit=protocol.MAX_LINE,
        )
        supervisor = asyncio.create_task(self._supervise())
        if on_ready is not None:
            on_ready()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            supervisor.cancel()
            # abort client transports (EOF ends their read loops cleanly
            # — cancelling the connection tasks instead makes asyncio's
            # stream-protocol callback log spurious CancelledErrors)
            for writer in list(self._client_writers):
                try:
                    writer.transport.abort()
                except (AttributeError, RuntimeError):  # pragma: no cover
                    pass
            for task in (
                list(self._background) + list(self._inflight.values())
            ):
                task.cancel()
            await asyncio.gather(
                supervisor,
                *self._background,
                *self._inflight.values(),
                *self._clients,
                return_exceptions=True,
            )
            for link in self._links.values():
                link.reset()
            for shard in self.shards:
                shard.terminate()
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def _supervise(self) -> None:
        """Respawn dead shards in place (same slot, bumped generation).

        Each slot backs off under :data:`RESPAWN`: after death *n* of a
        streak the next spawn waits ``RESPAWN.delay(n + 1)``, so a shard
        that dies on arrival does not get forked in a tight loop — and
        after ``RESPAWN.max_attempts`` consecutive deaths the slot is
        parked (``shard_crash_loops``; visible per-shard in the stats
        topology) until an operator intervenes.  :data:`RESPAWN_RESET`
        seconds of continuous liveness forgives the streak.
        """
        loop = asyncio.get_running_loop()
        state = {
            shard.shard_id: {"failures": 0, "next_try": 0.0, "alive_since": None}
            for shard in self.shards
        }
        self._supervisor_state = state
        while True:
            await asyncio.sleep(0.05)
            now = loop.time()
            for shard in self.shards:
                slot = state[shard.shard_id]
                if shard.alive():
                    if slot["alive_since"] is None:
                        slot["alive_since"] = now
                    elif (
                        slot["failures"]
                        and now - slot["alive_since"] >= RESPAWN_RESET
                    ):
                        slot["failures"] = 0
                    continue
                slot["alive_since"] = None
                if slot["failures"] >= RESPAWN.max_attempts:
                    continue  # parked: crash loop detected
                if now < slot["next_try"]:
                    continue
                slot["failures"] += 1
                if slot["failures"] >= RESPAWN.max_attempts:
                    self.metrics.inc("shard_crash_loops")
                slot["next_try"] = now + RESPAWN.delay(slot["failures"] + 1)
                self.metrics.inc("shard_restarts")
                link = self._links.get(shard.shard_id)
                if link is not None:
                    link.reset()
                shard.spawn()

    # -- client connections ------------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = asyncio.current_task()
        if connection is not None:
            self._clients.add(connection)
        self._client_writers.add(writer)
        write_lock = asyncio.Lock()

        async def reply(message: dict) -> None:
            data = protocol.encode(message)
            async with write_lock:
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # peer vanished; drop the reply like the daemon does

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, OSError):
                    break  # oversized frame or torn connection
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as error:
                    await reply(
                        {"id": None, "ok": False, "error": error.as_error()}
                    )
                    continue
                task = asyncio.create_task(self._dispatch(message, reply))
                self._background.add(task)
                task.add_done_callback(self._background.discard)
        finally:
            if connection is not None:
                self._clients.discard(connection)
            self._client_writers.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):  # pragma: no cover
                pass

    async def _dispatch(self, message: dict, reply) -> None:
        rid = message.get("id")
        op = message.get("op", "compile")
        if op == "ping":
            await reply({"id": rid, "ok": True, "pong": True, "fleet": True})
            return
        if op == "stats":
            await reply({"id": rid, "ok": True, "stats": await self.stats()})
            return
        if op == "shutdown":
            await reply({"id": rid, "ok": True, "stopping": True})
            self.request_stop()
            return
        if op != "compile":
            await reply({
                "id": rid,
                "ok": False,
                "error": {"kind": "bad-request",
                          "message": f"unknown op {op!r}"},
            })
            return
        self.metrics.inc("requests_total")
        try:
            request = protocol.validate_compile(message)
        except protocol.ProtocolError as error:
            self.metrics.inc("replies_error")
            await reply({"id": rid, "ok": False, "error": error.as_error()})
            return
        tenant, priority = request["tenant"], request["priority"]
        admitted, delay = self.quotas.admit(tenant, priority)
        if not admitted:
            self.metrics.inc("quota_denied")
            self.metrics.inc("replies_error")
            await reply({
                "id": rid,
                "ok": False,
                "error": {
                    "kind": "quota-exceeded",
                    "message": f"tenant {tenant!r} is over its request quota",
                },
            })
            return
        if delay > 0:
            self.metrics.inc("quota_delayed")
            await asyncio.sleep(delay)
        loop = asyncio.get_running_loop()
        started = loop.time()
        # only a shard compile suspends _compile, so background upgrades
        # see here whether a client waits on a shard
        self._foreground += 1
        try:
            body = await self._compile(request)
        finally:
            self._foreground -= 1
        elapsed = loop.time() - started
        self.metrics.latency.observe(elapsed)
        self.metrics.observe_labeled("tenant", tenant, elapsed)
        if body.get("ok"):
            self.metrics.inc("replies_ok")
            self.metrics.inc(f"replies_{body['served_from']}")
            tier = body["tier"]
            self.metrics.observe_labeled("tier", str(tier), elapsed)
            self.metrics.inc("tier1_replies" if tier == 1 else "tier2_replies")
        else:
            self.metrics.inc("replies_error")
        await reply({"id": rid, **body})

    # -- compile path ------------------------------------------------------------

    async def _compile(self, request: dict) -> dict:
        """Store-first, tiered, deduped compile of one request."""
        level = request["level"]
        # a level the caches may not keep (cacheable) is never stored,
        # never served from the store and never tiered
        stored = not request.get("no_store", False) and cacheable(level)
        if not (
            stored and self.config.tiering and level not in ("none", TIER1_LEVEL)
        ):
            return await self._store_or_compile(request, tier=2, stored=stored)
        # tiered: the requested level if the store holds it, else the
        # tier-1 answer now and the requested level in the background
        key = self._key(request)
        body = self._lookup(key, level, tier=2)
        if body is None:
            body = await self._store_or_compile(
                {**request, "level": TIER1_LEVEL}, tier=1
            )
            if body.get("ok"):
                self._ensure_upgrade(key, request)
        return body

    @staticmethod
    def _key(request: dict) -> str:
        return protocol.request_key(
            request["kind"], request["text"], request["level"], request["verify"]
        )

    def _lookup(self, key: str, level: str, *, tier: int) -> Optional[dict]:
        """The stored reply for ``(key, level)``, or ``None``; every
        lookup counts one ``store_hits`` or one ``store_misses``."""
        text = self.store.get(key, level)
        if text is None:
            self.metrics.inc("store_misses")
            return None
        self.metrics.inc("store_hits")
        return {"ok": True, "ir": text, "tier": tier, "level": level,
                "served_from": "store"}

    async def _store_or_compile(
        self, request: dict, *, tier: int, stored: bool = True
    ) -> dict:
        """``request`` answered at its own level: from the store when
        ``stored`` and the store holds it, else by a shard, and then
        stored unless the shard's reply is degraded."""
        level, key = request["level"], self._key(request)
        if stored:
            body = self._lookup(key, level, tier=tier)
            if body is not None:
                return body
        reply = await self._compile_once(request, key)
        if not reply.get("ok"):
            return reply
        # a degraded reply is honest about its achieved level but is
        # NOT the artifact this key promises — storing it would serve a
        # lower-level compile as a clean store hit forever after
        if stored and not reply.get("degraded"):
            self.store.put(key, reply["ir"], level=level)
            self.metrics.inc("store_writes")
        return {**reply, "tier": tier, "level": reply.get("level", level),
                "served_from": "shard"}

    async def _compile_once(self, request: dict, key: str) -> dict:
        """In-flight dedup: one routed compile per key, fanned out."""
        task = self._inflight.get(key)
        if task is not None:
            self.metrics.inc("gateway_dedup_hits")
        else:
            task = asyncio.create_task(self._route(request, key))
            self._inflight[key] = task
            task.add_done_callback(
                lambda done, key=key: self._inflight.pop(key, None)
            )
        # shield: a caller hanging up must not cancel the shared compile
        reply = await asyncio.shield(task)
        return dict(reply)

    async def _route(self, request: dict, key: str) -> dict:
        """Send one compile to its rendezvous shard.

        Fails over to the next shard only while a shard is unreachable
        (:class:`ShardUnavailable`, or the link's own timeout).  A
        shard's reply, ``worker-crash`` and ``timeout`` included, is
        final: the shard's scheduler owns retries.
        """
        message = {
            "op": "compile",
            "kind": request["kind"],
            "text": request["text"],
            "level": request["level"],
            "verify": request["verify"],
            "fault": request.get("fault"),
            "on_error": request.get("on_error", "degrade"),
        }
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.request_timeout
        excluded: set[str] = set()
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return {
                    "ok": False,
                    "error": {
                        "kind": "timeout",
                        "message": "no shard answered within "
                        f"{self.config.request_timeout}s",
                    },
                }
            shard_id = self._pick_shard(key, excluded)
            if shard_id is None:
                # every shard dead or already tried: wait for the
                # supervisor to respawn one, then widen the search again
                excluded.clear()
                await asyncio.sleep(0.05)
                continue
            try:
                reply = await self._links[shard_id].request(
                    message, timeout=remaining
                )
            except ShardUnavailable:
                self.metrics.inc("shard_failovers")
                excluded.add(shard_id)
                await asyncio.sleep(0.01)
                continue
            except asyncio.TimeoutError:
                self.metrics.inc("shard_failovers")
                excluded.add(shard_id)
                continue
            if reply.get("ok"):
                return {**self._strip(reply), "shard": shard_id}
            kind = reply.get("error", {}).get("kind")
            if kind != "overloaded" or request.get("priority") == "batch":
                # final: a compile error is deterministic, the shard's
                # scheduler has already retried a request that kills
                # workers, and batch traffic takes backpressure as is
                return self._strip(reply)
            self.metrics.inc("overloaded")
            await asyncio.sleep(0.02)

    def _pick_shard(self, key: str, excluded: set) -> Optional[str]:
        alive = [
            shard.shard_id for shard in self.shards
            if shard.alive() and shard.shard_id not in excluded
        ]
        if not alive:
            return None
        return hashring.choose(key, alive)

    @staticmethod
    def _strip(reply: dict) -> dict:
        return {name: value for name, value in reply.items() if name != "id"}

    # -- tier upgrades -----------------------------------------------------------

    def _ensure_upgrade(self, key: str, request: dict) -> None:
        """Schedule the background O2 compile for ``key`` once."""
        if key in self._upgrading:
            return
        self._upgrading.add(key)
        self.metrics.inc("upgrades_started")
        task = asyncio.create_task(self._upgrade(key, dict(request)))
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _upgrade(self, key: str, request: dict) -> None:
        try:
            async with self._upgrade_sem:
                # yield to foreground traffic: the O2 compile is nobody's
                # critical path, so it waits for a quiet moment (bounded
                # by UPGRADE_GRACE so a busy fleet still converges to O2)
                loop = asyncio.get_running_loop()
                grace_deadline = loop.time() + UPGRADE_GRACE
                while self._foreground > 0 and loop.time() < grace_deadline:
                    await asyncio.sleep(0.005)
                body = await self._store_or_compile(request, tier=2)
            # a degraded answer is not stored as the requested level;
            # it counts as a failed upgrade
            done = body.get("ok") and not body.get("degraded")
            self.metrics.inc("upgrades_done" if done else "upgrades_failed")
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 — upgrades must never take the loop down
            self.metrics.inc("upgrades_failed")
        finally:
            self._upgrading.discard(key)

    # -- stats -------------------------------------------------------------------

    async def stats(self) -> dict:
        """The merged fleet report: gateway + per-shard + fleet totals."""
        shard_stats: dict[str, Optional[dict]] = {}
        for shard_id, link in self._links.items():
            try:
                reply = await link.request({"op": "stats"}, timeout=2.0)
                shard_stats[shard_id] = reply.get("stats")
            except (ShardUnavailable, asyncio.TimeoutError):
                shard_stats[shard_id] = None
        gateway = self.metrics.snapshot()
        gateway["store"] = self.store.stats()
        gateway["quotas"] = self.quotas.snapshot()
        gateway["topology"] = {
            "tier1_level": TIER1_LEVEL,
            "tiering": self.config.tiering,
            "shards": [
                {
                    "id": shard.shard_id,
                    "alive": shard.alive(),
                    "generation": shard.generation,
                    "socket": shard.socket_path,
                    "respawn_failures": self._supervisor_state.get(
                        shard.shard_id, {}
                    ).get("failures", 0),
                    "crash_looped": self._supervisor_state.get(
                        shard.shard_id, {}
                    ).get("failures", 0)
                    >= RESPAWN.max_attempts,
                }
                for shard in self.shards
            ],
        }
        merged = merge_snapshots(
            [snap for snap in shard_stats.values() if snap]
        )
        return {"gateway": gateway, "shards": shard_stats, "merged": merged}


class FleetHandle:
    """Run a gateway (plus its shards) from synchronous code.

    The CLI, the bench and the tests all drive fleets through this:
    shards fork *before* the event-loop thread starts (the same
    fork-before-threads discipline as the daemon), then the gateway
    loop runs in a daemon thread until :meth:`stop`.
    """

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.gateway = FleetGateway(config)
        self.config = self.gateway.config
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._done = threading.Event()

    def start(self, ready_timeout: float = 30.0) -> "FleetHandle":
        self.gateway.spawn_shards()  # forks happen pre-thread
        for shard in self.gateway.shards:
            if not shard.wait_ready(timeout=ready_timeout):
                raise RuntimeError(
                    f"{shard.shard_id} did not start accepting"
                )

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(
                    self.gateway.run(on_ready=self._ready.set)
                )
            finally:
                loop.close()
                self._done.set()

        self._thread = threading.Thread(
            target=runner, name="repro-fleet-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=ready_timeout):
            self.stop()
            raise RuntimeError("gateway did not start accepting")
        return self

    def wait(self) -> None:
        """Block until the gateway loop has ended (a ``shutdown`` request
        or :meth:`stop`)."""
        self._done.wait()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and not self._done.is_set():
            try:
                loop.call_soon_threadsafe(self.gateway.request_stop)
            except RuntimeError:  # pragma: no cover — loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        # belt and braces: if the loop never ran, reap shards directly
        for shard in self.gateway.shards:
            if shard.alive():
                shard.terminate()

    def kill_shard(self, index: int) -> None:
        """SIGKILL shard ``index`` (the supervisor will respawn it)."""
        self.gateway.shards[index].kill()

    def __enter__(self) -> "FleetHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
