"""The two serving workloads: ``serve-mixed`` and ``fleet-mixed``.

A run starts the service in this process (a ``CompileDaemon`` with 2
workers, or a ``FleetHandle`` with 2 shards × 1 worker and tiering
off) in a fresh directory under ``.perfbench_run/``:

1. **set-up** — cold interpreter imports plus suite load (median of
   several fresh interpreters) and service spawn until ``ping``
   answers (median of three spawns; the last one serves the run);
2. **cold sweep** — every suite routine at every Table 1 level, once,
   in registry order, one request at a time: the service compiles the
   whole suite (``sweep_s``, ``compile_fps``) and fills the PassCache
   (daemon) or the ArtifactStore (fleet);
3. **closed loop** — 2 clients, each sending its next request when the
   previous reply arrives, for ``--seconds``.  Untraced, the sweep and
   the loop run in short segments with a host-speed mark between them
   (``drive_marked``), and their timings are in reference seconds.  The seeded stream
   alternates repeats of suite sources at random levels with fresh fuzz
   CFGs sent as IR that no run has seen before;
4. **oracle** — after the service stops, every reply is compared byte
   for byte with the in-process ``compile_payload`` of its request, and
   the distribution builds are executed against the routines'
   references and simulated at k=16 for the code-quality metrics.

With ``--trace 1`` the loop runs in two halves, untraced then traced:
the traced half records a span per request (split by repeat or fresh)
and brackets itself with ``stats`` snapshots, whose counter deltas give
the service- and fleet-layer metrics.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from statistics import fmean, median

from harness import (
    ROOT,
    HostSpeed,
    NullTracer,
    Result,
    Tracer,
    committed_backend,
    committed_table1,
    matches_reference,
    peak_rss_mb,
    percentile,
    reference_outcome,
    tail_mean,
    time_cold_imports,
)
from inprocess import LEVELS, TOP_K, simulate, static_ops

from repro.bench.serve import fuzz_cfg_source
from repro.bench.suite import suite_routines
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.pipeline import compile_payload
from repro.service.client import DaemonClient, DaemonError

CLIENTS = 2
SPAWNS = 3
#: Seconds between host-speed marks in an untraced run.
SEGMENT = 0.5
#: Requests generated before the loop, so that the clients, which share
#: this process with the daemon or gateway, rarely generate any in it.
PREFILL = 3000
SERVE_SETUP = (
    "import repro.pipeline, repro.service.client, repro.service.daemon\n"
    "from repro.bench.suite import suite_routines\n"
    "suite_routines()\n"
)
FLEET_SETUP = SERVE_SETUP + "import repro.service.fleet\n"


class Stream:
    """The seeded request stream.

    Even slots repeat a suite source, odd slots carry a never-seen fuzz
    CFG as IR.  The composition is stratified so that the seed changes
    only the order: the repeats walk seeded permutations of every
    (routine, level) pair, and the fuzz CFGs cycle through their sizes
    and the levels.
    """

    def __init__(self, seed: int, routines) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.routines = {routine.name: routine for routine in routines}
        self.pairs = [(name, level) for name in self.routines for level in LEVELS]
        self.items: list = []
        self._order: list = []
        self._lock = threading.Lock()
        self._next = 0

    def _generate(self) -> None:
        index = len(self.items)
        if index % 2 == 0:
            if not self._order:
                self._order = list(self.pairs)
                self.rng.shuffle(self._order)
            name, level = self._order.pop()
            request = {"kind": "source", "text": self.routines[name].source}
            meta = ("hit", name)
        else:
            fresh = index // 2
            text = fuzz_cfg_source(
                self.seed * 1_000_000 + index, 2 + fresh % 5, self.rng
            )
            level = LEVELS[(fresh // 5) % len(LEVELS)]
            request = {"kind": "ir", "text": text}
            meta = ("miss", None)
        self.items.append(({**request, "level": level, "verify": "final"}, meta))

    def prefill(self, count: int) -> None:
        while len(self.items) < count:
            self._generate()

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            while len(self.items) <= index:
                self._generate()
            return index


def drive(path: str, jobs, deadline=None, tracer=None, clients=CLIENTS) -> tuple[list, tuple]:
    """Closed loop from ``clients`` connections.

    ``jobs`` is a callable returning the next ``(index, request, kind)``
    or ``None`` when there is nothing left; the loop also ends at
    ``deadline``.  Returns ``(records, (start, end))`` where each record
    is ``(index, reply IR or the error, start, seconds, kind)``: an error
    reply, a timeout or a dropped connection is recorded, not raised.
    """
    tracer = tracer if tracer is not None else NullTracer()
    records: list = []
    lock = threading.Lock()
    errors: list = []

    def connect() -> DaemonClient:
        return DaemonClient(path, timeout=120.0, connect_retries=8)

    def client_loop() -> None:
        client = None
        try:
            client = connect()
            while deadline is None or time.perf_counter() < deadline:
                job = jobs()
                if job is None:
                    return
                index, request, kind = job
                t0 = time.perf_counter()
                try:
                    with tracer.span(f"client.{kind}"):
                        outcome = client.compile(**request)["ir"]
                except DaemonError as error:
                    outcome = error
                except OSError as error:  # timed out or dropped: reconnect
                    outcome = error
                    client.close()
                    client = connect()
                elapsed = time.perf_counter() - t0
                with lock:
                    records.append((index, outcome, t0, elapsed, kind))
        except Exception as error:  # noqa: BLE001 — surfaced after join
            errors.append(error)
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    if errors:
        raise errors[0]
    return records, (started, time.perf_counter())


def scaled(records: list, factor: float = 1.0) -> list:
    """``drive`` records as ``(index, outcome, seconds, kind)``, the
    seconds multiplied by ``factor``."""
    return [
        (index, outcome, seconds * factor, kind)
        for index, outcome, _, seconds, kind in records
    ]


def drive_marked(path: str, jobs, seconds=None, clients=CLIENTS) -> tuple[list, float]:
    """``drive`` in segments of ``SEGMENT`` seconds, for ``seconds`` in
    all or until ``jobs`` runs out, with a ``HostSpeed`` mark between
    segments, when no request is in flight: the marks measure the host,
    not the load.  Returns the segments' records, scaled like ``scaled``
    to reference seconds, and their summed wall time, scaled alike.
    """
    speed = HostSpeed(every_cpu=True)
    end = None if seconds is None else time.perf_counter() + seconds
    records: list = []
    total = 0.0
    exhausted = False

    def take():
        nonlocal exhausted
        job = jobs()
        exhausted = job is None
        return job

    while not exhausted and (end is None or time.perf_counter() < end):
        deadline = time.perf_counter() + SEGMENT
        segment, (start, stop) = drive(
            path, take, deadline if end is None else min(deadline, end), clients=clients
        )
        factor = speed.factor()
        records += scaled(segment, factor)
        total += (stop - start) * factor
    return records, total


# -- services ----------------------------------------------------------------------


class Daemon:
    """serve-mixed's service: one in-process CompileDaemon."""

    name = "daemon"

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.socket = os.path.join(run_dir, "daemon.sock")
        self.handle = None

    def start(self) -> None:
        from repro.service.daemon import CompileDaemon, DaemonConfig

        self.handle = CompileDaemon(DaemonConfig(
            socket_path=self.socket,
            workers=2,
            cache_dir=os.path.join(self.run_dir, "cache"),
            incident_dir=None,
            request_timeout=120.0,
        ))
        self.handle.start()

    def stop(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    def stats(self) -> dict:
        with DaemonClient(self.socket) as client:
            return client.stats()

    @staticmethod
    def layers(before: dict, after: dict) -> dict:
        return service_layers(before, after)

    @staticmethod
    def latency(stats: dict) -> dict:
        """The service-side latency histogram of a ``stats`` snapshot."""
        return stats["latency"]


class Fleet(Daemon):
    """fleet-mixed's service: a gateway over 2 shards × 1 worker."""

    name = "fleet"

    def start(self) -> None:
        from repro.service.fleet import FleetConfig, FleetHandle

        self.socket = os.path.join(self.run_dir, "gateway.sock")
        self.handle = FleetHandle(FleetConfig(
            socket_path=self.socket,
            shards=2,
            workers_per_shard=1,
            runtime_dir=os.path.join(self.run_dir, "shards"),
            store_dir=os.path.join(self.run_dir, "store"),
            cache_dir=os.path.join(self.run_dir, "cache"),
            tiering=False,
            quota_rate=100_000.0,
            quota_burst=200_000.0,
            request_timeout=120.0,
        ))
        self.handle.start()

    @staticmethod
    def layers(before: dict, after: dict) -> dict:
        layers = service_layers(before["merged"], after["merged"])
        gate = delta(before["gateway"]["counters"], after["gateway"]["counters"])
        lookups = gate["store_hits"] + gate["store_misses"]
        layers.update({
            "fleet.store_hit_ratio": gate["store_hits"] / lookups if lookups else 0.0,
            "fleet.gateway_dedup_hits": gate["gateway_dedup_hits"],
            "fleet.shard_replies": gate["replies_shard"],
            "fleet.shard_p50_ms": after["merged"]["latency"]["p50_ms"],
            "fleet.failovers": gate["shard_failovers"],
            # the merged view carries no pass rollup: sum it per shard
            "service.pass_s": sum(
                (after["shards"][shard] or {}).get("passes", {}).get("seconds", 0.0)
                - (before["shards"].get(shard) or {}).get("passes", {}).get("seconds", 0.0)
                for shard in after["shards"]
            ),
        })
        return layers

    @staticmethod
    def latency(stats: dict) -> dict:
        return stats["gateway"]["latency"]


def delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


def window_mean_ms(before: dict, after: dict) -> float:
    """Mean latency of the requests observed between two snapshots."""
    count = after["count"] - before["count"]
    total = after["mean_ms"] * after["count"] - before["mean_ms"] * before["count"]
    return total / count if count else 0.0


def service_layers(before: dict, after: dict) -> dict:
    counters = delta(before["counters"], after["counters"])
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    return {
        "service.daemon_p50_ms": after["latency"]["p50_ms"],
        "service.batch_mean": (
            counters["batched_jobs"] / counters["batches"] if counters["batches"] else 0.0
        ),
        "service.dedup_hits": counters["dedup_hits"],
        "service.retries": counters["retries"],
        "service.worker_crashes": counters["worker_crashes"],
        "service.overloaded": counters["overloaded"],
        "service.pass_s": (
            after.get("passes", {}).get("seconds", 0.0)
            - before.get("passes", {}).get("seconds", 0.0)
        ),
        "pm.cache.hits": hits,
        "pm.cache.misses": misses,
        "pm.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def spawn(service: Daemon) -> float:
    """Start ``service`` and return seconds until a ``ping`` answers."""
    started = time.perf_counter()
    service.start()
    with DaemonClient(service.socket, timeout=30.0, connect_retries=20) as client:
        if not client.ping():
            raise RuntimeError(f"{service.name} did not answer ping")
    return time.perf_counter() - started


# -- the workload ------------------------------------------------------------------


def run_serving(service_cls, seed: int, seconds: float, trace: bool, result: Result) -> dict:
    routines = suite_routines()
    by_name = {routine.name: routine for routine in routines}
    setup_imports = [] if trace else time_cold_imports(
        FLEET_SETUP if service_cls is Fleet else SERVE_SETUP
    )
    stream = Stream(seed, routines)
    stream.prefill(PREFILL)
    # the cold sweep keeps registry order: only the stream is seeded
    pairs = stream.pairs
    cursor = iter(range(len(pairs)))

    def sweep_jobs():
        index = next(cursor, None)
        if index is None:
            return None
        name, level = pairs[index]
        request = {"kind": "source", "text": by_name[name].source,
                   "level": level, "verify": "final"}
        return index, request, "sweep"

    def loop_jobs():
        index = stream.take()
        request, (kind, _) = stream.items[index]
        return index, request, kind

    base = ROOT / ".perfbench_run"
    base.mkdir(exist_ok=True)
    # relative to the checkout root: keeps Unix socket paths short
    run_dir = os.path.relpath(
        tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base), ROOT
    )
    service = service_cls(run_dir)
    spawns = []
    try:
        for attempt in range(1 if trace else SPAWNS):
            if attempt:
                service.stop()
            spawns.append(spawn(service))
        # one request at a time, so the sweep's time is the sum of its
        # compiles rather than a packing of two workers
        if trace:
            # wall times as they are, so that the client's and the
            # service's own figures compare
            sweep_records, _ = drive(service.socket, sweep_jobs, clients=1)
            sweep_records = scaled(sweep_records)
            half = seconds / 2
            plain, plain_span = drive(
                service.socket, loop_jobs, time.perf_counter() + half
            )
            before = service.stats()
            traced, traced_span = drive(
                service.socket, loop_jobs, time.perf_counter() + half, Tracer()
            )
            after = service.stats()
            plain, traced = scaled(plain), scaled(traced)
            loop_records = plain + traced
        else:
            sweep_records, sweep_s = drive_marked(service.socket, sweep_jobs, clients=1)
            loop_records, loop_s = drive_marked(service.socket, loop_jobs, seconds)
        rss = peak_rss_mb()
    finally:
        service.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()

    # -- oracle ------------------------------------------------------------------
    expected_builds = {
        pair: print_module(compile_payload("source", by_name[pair[0]].source, pair[1]))
        for pair in pairs
    }
    result.require(len(sweep_records) == len(pairs), "the cold sweep missed requests")
    for index, outcome, _, _ in sweep_records:
        result.check(
            outcome == expected_builds[pairs[index]],
            lambda: f"cold sweep {pairs[index]}: {str(outcome)[:80]}",
        )
    for index, outcome, _, kind in loop_records:
        request, (_, name) = stream.items[index]
        if kind == "hit":
            expected = expected_builds[(name, request["level"])]
        else:
            expected = print_module(
                compile_payload(request["kind"], request["text"], request["level"])
            )
        result.check(
            outcome == expected,
            lambda: f"request {index} ({kind}): {str(outcome)[:80]}",
        )
    quality = served_quality(expected_builds, routines, result)

    if trace:
        layers = service.layers(before, after)
        traced_s = [s for _, _, s, _ in traced]
        layers.update({
            "service.hit_p50_ms": percentile(
                [s for _, _, s, kind in traced if kind == "hit"], 0.5) * 1e3,
            "service.miss_p50_ms": percentile(
                [s for _, _, s, kind in traced if kind == "miss"], 0.5) * 1e3,
            "trace.overhead_s": fmean(traced_s) - fmean(s for _, _, s, _ in plain),
            # client-observed minus service-observed mean: wire + client
            "trace.residual_s": fmean(traced_s) - window_mean_ms(
                service.latency(before), service.latency(after)
            ) / 1e3,
        })
        for name, value in layers.items():
            result.metric(name, value)
        return {
            "untraced_requests": len(plain),
            "traced_requests": len(traced),
            "untraced_req_per_s": len(plain) / (plain_span[1] - plain_span[0]),
            "traced_req_per_s": len(traced) / (traced_span[1] - traced_span[0]),
        }

    functions = sum(
        len(parse_module(text).functions) for text in expected_builds.values()
    )
    latencies = [s for _, _, s, _ in loop_records]
    metrics = {
        "setup_s": median(setup_imports) + median(spawns),
        "compile_fps": functions / sweep_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": rss,
        "req_mean_ms": fmean(latencies) * 1e3,
        "req_tail_ms": tail_mean(latencies) * 1e3,
        "req_per_s": len(latencies) / loop_s,
        **quality,
    }
    for name, value in metrics.items():
        result.metric(name, value)
    return {
        "requests": len(latencies),
        "repeats": sum(1 for *_, kind in loop_records if kind == "hit"),
        "req_p50_ms": percentile(latencies, 0.50) * 1e3,
        "req_p90_ms": percentile(latencies, 0.90) * 1e3,
        "req_p99_ms": percentile(latencies, 0.99) * 1e3,
        "setup_imports_s": median(setup_imports),
        "setup_spawn_s": median(spawns),
    }


def served_quality(builds: dict, routines, result: Result) -> dict:
    """Execute the distribution builds every reply was checked against.

    Each runs against the routine's reference and, lowered for rvk,
    against the interpreter; counts are cross-checked with
    ``results/table1.txt`` and ``BENCH_backend.json``.
    """
    table1, backend = committed_table1(), committed_backend()
    totals = {"dyn_ops": 0, "static_ops": 0, "rvk_cycles": 0}
    for routine in routines:
        text = builds[(routine.name, "distribution")]
        run, arrays, sim = simulate(text, routine, result)
        result.check(
            matches_reference(run.value, arrays, reference_outcome(routine)),
            lambda: f"served {routine.name}@distribution differs from the reference",
        )
        result.require(
            run.dynamic_count == table1[routine.name]["distribution"],
            f"served {routine.name}: {run.dynamic_count} ops disagree with table1",
        )
        result.require(
            sim.cycles == backend[routine.name][TOP_K],
            f"served {routine.name}: {sim.cycles} cycles disagree with BENCH_backend",
        )
        totals["dyn_ops"] += run.dynamic_count
        totals["static_ops"] += static_ops(parse_module(text))
        totals["rvk_cycles"] += sim.cycles
    return totals


def run_serve_mixed(seed: int, seconds: float, trace: bool, result: Result) -> dict:
    return run_serving(Daemon, seed, seconds, trace, result)


def run_fleet_mixed(seed: int, seconds: float, trace: bool, result: Result) -> dict:
    return run_serving(Fleet, seed, seconds, trace, result)
