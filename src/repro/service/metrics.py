"""Daemon observability: counters, latency histograms, per-pass rollups.

One :class:`Metrics` instance lives in the daemon process.  Scheduler
and connection threads bump counters and observe request latencies;
worker batch reports (``ManagerStats`` JSON from each process) merge
into a global per-pass rollup, so the ``stats`` request answers "where
did the time go" across the whole pool with the same pass labels the
``--stats`` CLI flag prints.  The counters are one table of ints, and
one lock guards it and the rollup.

The histogram keeps exact samples up to a cap and falls back to
log-spaced buckets beyond it, so p50/p99 stay meaningful on multi-hour
daemons without unbounded memory.

The fleet gateway reuses all of this with two extensions: **labeled**
latency histograms (``observe_labeled("tier", "1", s)`` /
``("tenant", name, s)``) so tiered first answers and per-tenant service
levels are separately observable, and :func:`merge_snapshots`, which
folds N shard ``stats`` snapshots into one fleet-wide report (counters
sum exactly; merged latency is count-weighted for the mean and takes
the worst shard's quantiles, which is the conservative bound a
fleet-level SLO wants).
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Optional

from repro.pm.manager import ManagerStats

#: Log-spaced latency bucket upper bounds, seconds (100µs .. ~100s).
_BUCKET_BOUNDS = tuple(1e-4 * (2**i) for i in range(21))

#: Exact samples kept before quantiles fall back to bucket interpolation.
_SAMPLE_CAP = 100_000


class LatencyHistogram:
    """Request latencies: exact quantiles while small, buckets forever."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._count += 1
            self._total += seconds
            self._max = max(self._max, seconds)
            self._buckets[bisect.bisect_left(_BUCKET_BOUNDS, seconds)] += 1
            if len(self._samples) < _SAMPLE_CAP:
                bisect.insort(self._samples, seconds)

    def percentile(self, fraction: float) -> float:
        """The ``fraction`` quantile (0 < fraction <= 1), seconds."""
        with self._lock:
            if not self._count:
                return 0.0
            if self._count == len(self._samples):
                index = min(len(self._samples) - 1, int(fraction * (self._count - 1)))
                return self._samples[index]
            # bucket fallback: upper bound of the bucket holding the rank
            rank = fraction * self._count
            running = 0
            for index, count in enumerate(self._buckets):
                running += count
                if running >= rank:
                    if index < len(_BUCKET_BOUNDS):
                        return _BUCKET_BOUNDS[index]
                    return self._max
            return self._max

    def snapshot(self) -> dict:
        with self._lock:
            count, total, peak = self._count, self._total, self._max
        return {
            "count": count,
            "mean_ms": round(total / count * 1e3, 3) if count else 0.0,
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p90_ms": round(self.percentile(0.90) * 1e3, 3),
            "p99_ms": round(self.percentile(0.99) * 1e3, 3),
            "max_ms": round(peak * 1e3, 3),
        }


class Metrics:
    """The daemon-wide registry: counters, one latency histogram, rollups."""

    #: Counters pre-declared so snapshots always carry the full schema.
    COUNTER_NAMES = (
        "requests_total",
        "replies_ok",
        "replies_error",
        "dedup_hits",
        "batches",
        "batched_jobs",
        "retries",
        "timeouts",
        "worker_crashes",
        "overloaded",
        "cache_hits",
        "cache_misses",
        "quarantined",
        "quarantine_hits",
        "degraded_replies",
    )

    def __init__(self, extra_counters: tuple = ()) -> None:
        #: guards the counters, the labeled histograms' index and the
        #: pass rollup
        self._lock = threading.Lock()
        self._counters = dict.fromkeys((*self.COUNTER_NAMES, *extra_counters), 0)
        self.latency = LatencyHistogram()
        self._labeled: dict[str, dict[str, LatencyHistogram]] = {}
        self._pass_stats = ManagerStats()
        self._started = time.monotonic()

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def observe_labeled(self, group: str, label: str, seconds: float) -> None:
        """Record a latency under ``group``/``label`` (e.g. tier/tenant).

        Histograms are created on first use, so label sets stay open
        (new tenants just appear); each label is a full
        :class:`LatencyHistogram` with the same bounded-memory story.
        """
        with self._lock:
            series = self._labeled.setdefault(group, {})
            histogram = series.get(label)
            if histogram is None:
                histogram = series[label] = LatencyHistogram()
        histogram.observe(seconds)

    def merge_worker_stats(self, stats_jsonable: dict) -> None:
        """Fold one worker batch report into the global pass rollup."""
        stats = ManagerStats.from_jsonable(stats_jsonable)
        with self._lock:
            self._pass_stats.merge(stats)
            self._counters["cache_hits"] += stats.cache_hits
            self._counters["cache_misses"] += stats.cache_misses

    def snapshot(self, scheduler: Optional[object] = None) -> dict:
        """The ``stats``-reply body (schema documented in SERVICE.md)."""
        with self._lock:
            counters = dict(self._counters)
            passes = self._pass_stats.to_jsonable()
            labeled = {
                group: sorted(series.items())
                for group, series in self._labeled.items()
            }
        hits, misses = counters["cache_hits"], counters["cache_misses"]
        lookups = hits + misses
        report = {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "counters": counters,
            "latency": self.latency.snapshot(),
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
            },
            "passes": passes,
        }
        if labeled:
            report["latency_by"] = {
                group: {label: histogram.snapshot() for label, histogram in series}
                for group, series in labeled.items()
            }
        if scheduler is not None:
            report["scheduler"] = scheduler.gauges()
        return report

    def format(self) -> str:
        """A human-readable shutdown dump (mirrors ``--stats`` style)."""
        snap = self.snapshot()
        lines = [f"uptime: {snap['uptime_seconds']:.1f}s"]
        lines.append(
            "counters: "
            + ", ".join(f"{k}={v}" for k, v in sorted(snap["counters"].items()) if v)
        )
        lat = snap["latency"]
        lines.append(
            f"latency: n={lat['count']} mean={lat['mean_ms']}ms "
            f"p50={lat['p50_ms']}ms p99={lat['p99_ms']}ms max={lat['max_ms']}ms"
        )
        cache = snap["cache"]
        lines.append(
            f"cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(ratio {cache['hit_ratio']})"
        )
        with self._lock:
            if self._pass_stats.passes:
                lines.append(self._pass_stats.format())
        return "\n".join(lines)


def merge_snapshots(snapshots: list) -> dict:
    """Fold N ``Metrics.snapshot()`` dicts into one fleet-wide view.

    Counters and cache totals sum exactly.  Latency: ``count`` and the
    count-weighted ``mean_ms`` are exact; ``p50/p90/p99/max`` take the
    worst contributing shard (quantiles do not compose, and for a
    fleet-level SLO the conservative bound is the honest one).
    """
    counters: dict[str, int] = {}
    latency = {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p90_ms": 0.0,
               "p99_ms": 0.0, "max_ms": 0.0}
    weighted_mean = 0.0
    cache_hits = cache_misses = 0
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        lat = snap.get("latency", {})
        count = lat.get("count", 0)
        latency["count"] += count
        weighted_mean += lat.get("mean_ms", 0.0) * count
        for quantile in ("p50_ms", "p90_ms", "p99_ms", "max_ms"):
            latency[quantile] = max(latency[quantile], lat.get(quantile, 0.0))
        cache = snap.get("cache", {})
        cache_hits += cache.get("hits", 0)
        cache_misses += cache.get("misses", 0)
    if latency["count"]:
        latency["mean_ms"] = round(weighted_mean / latency["count"], 3)
    lookups = cache_hits + cache_misses
    return {
        "sources": len(snapshots),
        "counters": counters,
        "latency": latency,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_ratio": round(cache_hits / lookups, 4) if lookups else 0.0,
        },
    }
