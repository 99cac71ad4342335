"""Gate runner for the compile daemon (``repro bench serve``).

Drives a self-hosted :class:`~repro.service.daemon.CompileDaemon` with a
mixed corpus — every benchmark-suite routine (as frontend source, levels
cycled) plus deterministic fuzz CFGs (as printed IR, the shapes the
frontend cannot produce) — and checks every reply byte for byte against
the direct in-process compile of the same request:

* **cold pass** — every unique request once; the first ``--crash`` of
  them carry a crash-once fault, so worker recovery and the retry path
  run under load;
* **warm pass** — every request :data:`DUPLICATES` times, shuffled
  across :data:`CLIENTS` connections: the dedup and cache path.

Writes ``BENCH_service.json`` (reply counts and the daemon's counters)
and exits 1 on any wrong or unanswered reply, or when an injected crash
did not register.  The daemon's latency and throughput are measured by
perfbench's ``serve-mixed`` workload, not here.

:func:`drive` and :func:`expected_outputs` are the client driver and
oracle that ``repro bench fleet`` shares.
"""

from __future__ import annotations

import os
import queue
import random
import sys
import tempfile
import threading
import time

from repro.bench.report import finish
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.printer import print_function, print_module
from repro.ir.validate import validate_function
from repro.pipeline import OptLevel
from repro.pipeline.driver import compile_payload

_LEVELS = [level.value for level in OptLevel]

_BIN_OPS = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.CMPLT,
    Opcode.CMPEQ,
]
_POOL = ["v0", "v1", "v2", "v3", "v4"]


def fuzz_cfg_source(index: int, n_blocks: int, rng: random.Random) -> str:
    """One deterministic fuzz CFG as printed IR (cf. ``tests/test_ir_fuzz``).

    Random branch targets (reducible *and* irreducible shapes) with a
    fuel counter bounding execution, random arithmetic over a small
    register pool — the workload the frontend's structured control flow
    never generates, so the service is exercised on arbitrary CFGs.
    """

    func = Function(f"fuzz{index}", params=["p0", "p1"])
    entry = func.add_block("entry")
    entry.instructions.append(Instruction(Opcode.LOADI, target="m", imm=2477))
    for reg in _POOL:
        entry.instructions.append(
            Instruction(Opcode.LOADI, target=reg, imm=rng.randrange(13) - 6)
        )
    entry.instructions.append(Instruction(Opcode.LOADI, target="fuel", imm=40))
    entry.instructions.append(Instruction(Opcode.LOADI, target="one", imm=1))
    entry.instructions.append(Instruction(Opcode.LOADI, target="zero", imm=0))
    entry.instructions.append(Instruction(Opcode.JMP, labels=["n0"]))

    labels = [f"n{i}" for i in range(n_blocks)]
    for label in labels:
        blk = BasicBlock(label)
        for _ in range(1 + rng.randrange(3)):
            op = _BIN_OPS[rng.randrange(len(_BIN_OPS))]
            target = _POOL[rng.randrange(len(_POOL))]
            a = _POOL[rng.randrange(len(_POOL))]
            b = (_POOL + ["p0", "p1"])[rng.randrange(len(_POOL) + 2)]
            blk.instructions.append(Instruction(op, target=target, srcs=[a, b]))
            if op is Opcode.MUL:
                blk.instructions.append(
                    Instruction(Opcode.MOD, target=target, srcs=[target, "m"])
                )
        blk.instructions.append(
            Instruction(Opcode.SUB, target="fuel", srcs=["fuel", "one"])
        )
        blk.instructions.append(
            Instruction(Opcode.CMPGT, target="go", srcs=["fuel", "zero"])
        )
        blk.instructions.append(
            Instruction(
                Opcode.CBR,
                srcs=["go"],
                labels=[labels[rng.randrange(n_blocks)], "out"],
            )
        )
        func.blocks.append(blk)

    out = func.add_block("out")
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["v0", "v1"]))
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["r", "v2"]))
    out.instructions.append(Instruction(Opcode.RET, srcs=["r"]))
    func.sync_counters()
    validate_function(func)
    return print_function(func)


def build_corpus(quick: bool) -> list[dict]:
    """The mixed request corpus: suite sources + fuzz-CFG IR."""
    from repro.bench.suite import suite_routines

    requests: list[dict] = []
    routines = suite_routines()
    if quick:
        routines = routines[:10]
    for index, routine in enumerate(routines):
        requests.append(
            {
                "kind": "source",
                "text": routine.source,
                "level": _LEVELS[index % len(_LEVELS)],
                "verify": "final",
            }
        )
    rng = random.Random(0x5EED)
    for index in range(6 if quick else 20):
        requests.append(
            {
                "kind": "ir",
                "text": fuzz_cfg_source(index, 2 + index % 5, rng),
                "level": _LEVELS[index % len(_LEVELS)],
                "verify": "final",
            }
        )
    return requests


#: Concurrent client connections, in this bench and in ``bench fleet``.
CLIENTS = 4
#: How many times the warm pass sends each request (full run, ``--quick``).
DUPLICATES = 3
QUICK_DUPLICATES = 2


def expected_outputs(corpus: list[dict]) -> list[str]:
    """Direct in-process compiles of ``corpus``: the byte-identity oracle."""
    return [
        print_module(compile_payload(
            request["kind"], request["text"], request["level"],
            request["verify"],
        ))
        for request in corpus
    ]


def drive(
    socket_path: str,
    work: list[tuple[dict, dict]],
    *,
    on_progress=None,
) -> tuple[dict, int]:
    """Send ``(request, expected_by_tier)`` jobs from :data:`CLIENTS` threads.

    A request may carry the protocol's ``fault`` and ``no_store``
    fields.  ``expected_by_tier`` maps each acceptable reply tier to its
    expected bytes; a plain daemon's reply carries no tier, so it counts
    as tier 2, the level it was asked for.  A reply at any other tier or
    with other bytes is wrong, and so is a request that raised (an error
    reply, a dropped connection): the client reports it, counts it and
    takes the next job.  A job no client took (every client failed to
    connect) counts as wrong too, so zero wrong means every request was
    answered and checked.  Returns (client-observed seconds per reply
    tier, wrong count); ``on_progress`` is called with the number of
    replies judged.
    """
    from repro.service.client import DaemonClient

    jobs: "queue.Queue" = queue.Queue()
    for item in work:
        jobs.put(item)
    latencies: dict = {}
    wrong = [0]
    done = [0]
    lock = threading.Lock()

    def client_loop() -> None:
        try:
            client = DaemonClient(socket_path, timeout=120.0, connect_retries=8)
        except OSError as error:
            print(f"client could not connect: {error}", file=sys.stderr)
            return
        try:
            while True:
                try:
                    request, expected_by_tier = jobs.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                try:
                    reply = client.compile(
                        request["kind"], request["text"], request["level"],
                        request["verify"],
                        fault=request.get("fault"),
                        no_store=request.get("no_store", False),
                    )
                except Exception as error:  # noqa: BLE001 — a failed request is a wrong reply here
                    print(f"request failed: {type(error).__name__}: {error}",
                          file=sys.stderr)
                    with lock:
                        wrong[0] += 1
                        done[0] += 1
                    continue
                elapsed = time.perf_counter() - t0
                tier = reply.get("tier", 2)
                with lock:
                    latencies.setdefault(tier, []).append(elapsed)
                    if reply.get("ir") != expected_by_tier.get(tier):
                        wrong[0] += 1
                    done[0] += 1
                    if on_progress is not None:
                        on_progress(done[0])
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, daemon=True)
        for _ in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, wrong[0] + jobs.qsize()


def main(
    *,
    quick: bool = False,
    crashes: int = 1,
    json_out: str = "BENCH_service.json",
) -> int:
    from repro.service.client import DaemonClient
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.faults import RetryPolicy

    workers = min(4, os.cpu_count() or 2)
    duplicates = QUICK_DUPLICATES if quick else DUPLICATES
    corpus = build_corpus(quick)
    print(
        f"corpus: {len(corpus)} requests "
        f"({sum(r['kind'] == 'source' for r in corpus)} suite sources, "
        f"{sum(r['kind'] == 'ir' for r in corpus)} fuzz CFGs)",
        file=sys.stderr,
    )
    expected = expected_outputs(corpus)

    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    config = DaemonConfig(
        socket_path=os.path.join(tmp, "daemon.sock"),
        workers=workers,
        cache_dir=os.path.join(tmp, "cache"),
        request_timeout=120.0,
        max_pending=4096,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    daemon = CompileDaemon(config)
    daemon.start()
    try:
        cold_work = [
            (
                dict(request, fault={"kind": "crash", "attempts": 1})
                if index < crashes else request,
                {2: expected[index]},
            )
            for index, request in enumerate(corpus)
        ]
        _, cold_wrong = drive(config.socket_path, cold_work)

        rng = random.Random(1)
        warm_work = [
            (request, {2: expected[index]})
            for index, request in enumerate(corpus)
        ] * duplicates
        rng.shuffle(warm_work)
        _, warm_wrong = drive(config.socket_path, warm_work)

        with DaemonClient(config.socket_path) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        daemon.stop()

    wrong_total = cold_wrong + warm_wrong
    counters = stats["counters"]
    report = {
        "corpus": {
            "requests": len(corpus),
            "suite_sources": sum(r["kind"] == "source" for r in corpus),
            "fuzz_cfgs": sum(r["kind"] == "ir" for r in corpus),
            "quick": quick,
        },
        "config": {
            "workers": workers,
            "clients": CLIENTS,
            "duplicates": duplicates,
            "injected_crashes": crashes,
        },
        "cold": {"requests": len(cold_work), "wrong": cold_wrong},
        "warm": {"requests": len(warm_work), "wrong": warm_wrong},
        "wrong_replies": wrong_total,
        "daemon_stats": {
            key: stats[key] for key in ("counters", "cache", "scheduler")
        },
    }
    print(
        f"dedup {counters['dedup_hits']}, cache ratio "
        f"{stats['cache']['hit_ratio']}, worker crashes "
        f"{counters['worker_crashes']}, retries {counters['retries']}, "
        f"wrong replies {wrong_total}",
        file=sys.stderr,
    )
    failures = []
    if wrong_total:
        failures.append(f"{wrong_total} wrong replies")
    if crashes and not counters["worker_crashes"]:
        failures.append("injected crash did not register")
    return finish(report, failures, json_out)
