"""Gate runner for the compile fleet (``repro bench fleet``).

Builds on :mod:`repro.bench.serve`'s corpus, client driver and
byte-identity oracle, and checks the properties the *fleet* adds over a
single daemon.  Writes ``BENCH_fleet.json``:

* **tiered latency** — a cold fleet answers every request from the O1
  tier; the client-observed tier-1 p99 is compared against the p99 of
  the *same cold flood* compiled at the requested O2 level on the same
  fleet (``no_store``) — the latency the fast tier exists to hide,
  measured under identical load and queueing.  Every tier-1 reply is
  byte-checked against the direct O1 compile, every tier-2 reply
  against the direct O2 compile.  ``--max-tier1-p99-frac`` gates the
  ratio.  This is the report's only timing: perfbench's fleet-mixed
  workload runs with tiering off, so nothing else measures it.
* **tier transition** — after the background upgrades drain, the same
  corpus is replayed and every reply must come back tier 2 from the
  store, byte-identical to the direct O2 compile.
* **cross-shard warm hits** — a *fresh* fleet (new shards, new pass
  caches, same store directory) replays the corpus; the store-served
  fraction is the cross-shard hit rate (no shard of the new fleet ever
  compiled these keys), gated by ``--min-hit-rate``.
* **failover** — ``no_store`` requests (forced down the shard path)
  with one shard SIGKILLed mid-run: zero wrong replies required, the
  supervisor's respawn observed in the stats.

Any wrong or unanswered reply exits 1.  The fleet's latency, throughput
and compile rate are measured by perfbench's fleet-mixed workload.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import threading
import time
from typing import Optional

from repro.bench.report import finish
from repro.bench.serve import (
    CLIENTS,
    build_corpus,
    drive,
    expected_outputs,
    fuzz_cfg_source,
)

#: The heavy level tiered requests ask for (the paper's full pipeline).
_O2_LEVEL = "distribution"
#: Shards in the primary fleet.
SHARDS = 4


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))]


def _drain_upgrades(socket_path: str, timeout: float = 120.0) -> dict:
    """Poll gateway stats until no background upgrade is pending."""
    from repro.service.client import DaemonClient

    deadline = time.monotonic() + timeout
    with DaemonClient(socket_path, connect_retries=8) as client:
        while True:
            counters = client.stats()["gateway"]["counters"]
            pending = (
                counters["upgrades_started"]
                - counters["upgrades_done"]
                - counters["upgrades_failed"]
            )
            if pending <= 0:
                return counters
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{pending} upgrades still pending after {timeout}s"
                )
            time.sleep(0.05)


def _fleet_config(tmp: str, tag: str, shards: int, store_dir: str):
    from repro.service.fleet import FleetConfig

    return FleetConfig(
        socket_path=os.path.join(tmp, f"{tag}.sock"),
        shards=shards,
        runtime_dir=os.path.join(tmp, f"{tag}-run"),
        store_dir=store_dir,
        cache_dir=os.path.join(tmp, f"{tag}-cache"),
        # quotas are not under test here; keep them out of the way
        quota_rate=100_000.0,
        quota_burst=200_000.0,
        request_timeout=120.0,
    )


def _fuzz_corpus(count: int, base: int, level: str) -> list[dict]:
    rng = random.Random(0xF1EE7 + base)
    return [
        {
            "kind": "ir",
            "text": fuzz_cfg_source(base + index, 2 + index % 5, rng),
            "level": level,
            "verify": "final",
            "no_store": True,
        }
        for index in range(count)
    ]


def main(
    *,
    quick: bool = False,
    json_out: str = "BENCH_fleet.json",
    min_hit_rate: Optional[float] = None,
    max_tier1_p99_frac: Optional[float] = None,
) -> int:
    from repro.service.client import DaemonClient
    from repro.service.fleet import FleetHandle

    corpus = [dict(request, level=_O2_LEVEL) for request in build_corpus(quick)]
    print(f"corpus: {len(corpus)} requests, all at level {_O2_LEVEL!r}",
          file=sys.stderr)
    expected_o2 = expected_outputs(corpus)
    expected_o1 = expected_outputs(
        [dict(request, level="none") for request in corpus]
    )

    tmp = tempfile.mkdtemp(prefix="repro-fleet-bench-")
    store_dir = os.path.join(tmp, "store")
    report: dict = {
        "corpus": {"requests": len(corpus), "level": _O2_LEVEL, "quick": quick},
        "config": {"shards": SHARDS, "clients": CLIENTS},
    }
    wrong_total = 0
    failures: list[str] = []

    # -- fleet A: O2-under-load baseline -> tiered cold -> drain -> transition ---
    with FleetHandle(_fleet_config(tmp, "fleetA", SHARDS, store_dir)) as fleet:
        sock = fleet.config.socket_path

        # the latency tiering exists to hide: the same cold flood
        # compiled at the requested O2 level (no_store keeps the store
        # cold for the tiered pass that follows)
        o2_work = [
            (dict(request, no_store=True), {2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        o2_lat, o2_wrong = drive(sock, o2_work)
        wrong_total += o2_wrong
        o2_loaded = o2_lat.get(2, [])
        o2_loaded_p99_s = _percentile(o2_loaded, 0.99)

        cold_work = [
            (request, {1: expected_o1[index], 2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        cold_lat, cold_wrong = drive(sock, cold_work)
        wrong_total += cold_wrong
        tier1 = cold_lat.get(1, [])
        tier1_p99_s = _percentile(tier1, 0.99) if tier1 else 0.0
        report["tiered_latency"] = {
            "o2_under_load": {
                "requests": len(o2_work),
                "p50_ms": round(_percentile(o2_loaded, 0.5) * 1e3, 3),
                "p99_ms": round(o2_loaded_p99_s * 1e3, 3),
                "wrong": o2_wrong,
            },
            "tiered_cold": {
                "requests": len(cold_work),
                "tier1_replies": len(tier1),
                "tier2_replies": len(cold_lat.get(2, [])),
                "tier1_p50_ms": (
                    round(_percentile(tier1, 0.5) * 1e3, 3) if tier1 else None
                ),
                "tier1_p99_ms": round(tier1_p99_s * 1e3, 3) if tier1 else None,
                "tier1_p99_vs_o2_under_load": (
                    round(tier1_p99_s / o2_loaded_p99_s, 3) if tier1 else None
                ),
                "wrong": cold_wrong,
            },
        }
        print(
            f"tiered cold: {len(tier1)}/{len(cold_work)} tier-1 first "
            f"answers, p99 {tier1_p99_s * 1e3:.2f} ms "
            f"({tier1_p99_s / o2_loaded_p99_s:.2f}x the O2-under-load p99 "
            f"{o2_loaded_p99_s * 1e3:.2f} ms)",
            file=sys.stderr,
        )

        counters = _drain_upgrades(sock)
        report["upgrades"] = {
            "started": counters["upgrades_started"],
            "done": counters["upgrades_done"],
            "failed": counters["upgrades_failed"],
        }

        transition_work = [
            (request, {2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        trans_lat, trans_wrong = drive(sock, transition_work)
        wrong_total += trans_wrong
        transitions = len(trans_lat.get(2, []))
        report["tier_transition"] = {
            "requests": len(transition_work),
            "tier2_replies": transitions,
            "wrong": trans_wrong,
        }
        if transitions != len(transition_work):
            failures.append(
                f"tier transition incomplete: {transitions}/"
                f"{len(transition_work)} replies at tier 2"
            )
        print(
            f"tier transition: {transitions}/{len(transition_work)} replies "
            f"upgraded to tier 2, wrong {trans_wrong}",
            file=sys.stderr,
        )

        with DaemonClient(sock, connect_retries=8) as client:
            fleet_stats = client.stats()
        gateway = fleet_stats["gateway"]
        # the store's directory is a temp path, the shards' latency a timing
        report["fleet_stats"] = {
            "gateway_counters": gateway["counters"],
            "store": {
                key: value for key, value in gateway["store"].items()
                if key != "directory"
            },
            "merged_shards": {
                key: value for key, value in fleet_stats["merged"].items()
                if key != "latency"
            },
        }

    # -- fleet B: cross-shard warm hits (fresh shards, same store) ---------------
    with FleetHandle(_fleet_config(tmp, "fleetB", 2, store_dir)) as fleet:
        cross_lat, cross_wrong = drive(fleet.config.socket_path, transition_work)
        wrong_total += cross_wrong
        with DaemonClient(fleet.config.socket_path, connect_retries=8) as client:
            counters = client.stats()["gateway"]["counters"]
    hit_rate = (
        counters["replies_store"] / counters["requests_total"]
        if counters["requests_total"] else 0.0
    )
    report["cross_shard"] = {
        "requests": counters["requests_total"],
        "store_replies": counters["replies_store"],
        "hit_rate": round(hit_rate, 4),
        "tier2_replies": len(cross_lat.get(2, [])),
        "wrong": cross_wrong,
    }
    print(
        f"cross-shard: {counters['replies_store']}/"
        f"{counters['requests_total']} served from the shared store "
        f"(hit rate {hit_rate:.2%})",
        file=sys.stderr,
    )

    # -- fleet C: shard-kill failover (no_store, forced shard path) --------------
    failover_corpus = _fuzz_corpus(12 if quick else 32, 1000, "baseline")
    failover_expected = expected_outputs(failover_corpus)
    failover_work = [
        (request, {2: failover_expected[index]})
        for index, request in enumerate(failover_corpus)
    ] * 2
    with FleetHandle(_fleet_config(tmp, "fleetC", 2, os.path.join(
            tmp, "storeC"))) as fleet:
        killed = threading.Event()

        def _killer(done_count: int) -> None:
            # SIGKILL one shard a third of the way through the run
            if not killed.is_set() and done_count >= len(failover_work) // 3:
                killed.set()
                fleet.kill_shard(0)

        _, failover_wrong = drive(
            fleet.config.socket_path, failover_work, on_progress=_killer
        )
        wrong_total += failover_wrong
        time.sleep(1.0)  # let the supervisor respawn before reading stats
        with DaemonClient(fleet.config.socket_path, connect_retries=8) as client:
            stats = client.stats()
        gw_counters = stats["gateway"]["counters"]
        alive = [s["alive"] for s in stats["gateway"]["topology"]["shards"]]
    report["failover"] = {
        "requests": len(failover_work),
        "shard_killed": killed.is_set(),
        "shard_failovers": gw_counters["shard_failovers"],
        "shard_restarts": gw_counters["shard_restarts"],
        "shards_alive_after": alive,
        "wrong": failover_wrong,
    }
    if not killed.is_set():
        failures.append("failover drill never killed a shard")
    if not gw_counters["shard_restarts"]:
        failures.append("supervisor recorded no shard restart")
    print(
        f"failover: killed shard-0 mid-run, {failover_wrong} wrong replies, "
        f"{gw_counters['shard_failovers']} failovers, "
        f"{gw_counters['shard_restarts']} restarts, alive after: {alive}",
        file=sys.stderr,
    )

    report["wrong_replies"] = wrong_total
    if wrong_total:
        failures.append(f"{wrong_total} wrong replies")
    tier1_frac = report["tiered_latency"]["tiered_cold"][
        "tier1_p99_vs_o2_under_load"
    ]
    if max_tier1_p99_frac is not None and (
            tier1_frac is None or tier1_frac > max_tier1_p99_frac):
        failures.append(
            f"tier-1 p99 is {tier1_frac}x the O2-under-load p99 "
            f"(gate {max_tier1_p99_frac}x)"
        )
    if min_hit_rate is not None and hit_rate < min_hit_rate:
        failures.append(
            f"cross-shard hit rate {hit_rate:.2%} below gate "
            f"{min_hit_rate:.0%}"
        )
    return finish(report, failures, json_out)
