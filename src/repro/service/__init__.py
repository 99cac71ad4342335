"""The compile service: a persistent daemon front end for the optimizer.

Everything PRs 1–3 built — registry-driven pipelines, the
content-addressed :class:`~repro.pm.cache.PassCache`, bit-mask PRE
dataflow and the cached :class:`~repro.analysis.manager.AnalysisManager`
— was only reachable through one-shot CLI invocations that pay full
interpreter startup and cold caches per request.  This package turns
those pieces into sustained throughput (see ``docs/SERVICE.md``):

* :mod:`repro.service.protocol` — line-delimited JSON over a Unix
  socket: compile / stats / ping / shutdown requests, content-hash
  request keys;
* :mod:`repro.service.workers` — a supervised process worker pool that
  preloads the pass registry and keeps a warm ``PassCache`` and
  per-``(level, verify)`` ``PassManager`` in every worker;
* :mod:`repro.service.scheduler` — content-hash dedup of in-flight
  identical work, batches sent whenever a worker is free,
  hash-sharding across the pool,
  per-request deadlines, bounded retry on worker death (the only retry
  of a request that kills workers: the fleet gateway fails over only
  when a shard is unreachable);
* :mod:`repro.service.faults` — the one retry policy (worker-death
  retries, client connects, shard respawns), load-shedding
  backpressure, and the crash/hang/error injection hooks the tests and
  ``repro bench serve`` drive;
* :mod:`repro.service.metrics` — counters, latency histograms, cache
  hit ratios and per-pass time rollups behind the ``stats`` request;
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the
  ``repro serve`` server and the ``repro compile --daemon`` client with
  transparent in-process fallback.

Replies are byte-identical to the direct in-process compile
(:func:`repro.pipeline.driver.compile_payload`): the workers and the
in-process fallback answer through one request-to-reply function,
:func:`repro.triage.containment.compile_reply`, whose fast path is that
compile.
"""

from repro.service.client import (
    DaemonClient,
    DaemonError,
    compile_with_fallback,
    try_connect,
)
from repro.service.daemon import CompileDaemon, DaemonConfig
from repro.service.faults import FaultInjected, OverloadedError, RetryPolicy
from repro.service.metrics import Metrics
from repro.service.protocol import ProtocolError, default_socket_path, request_key
from repro.service.scheduler import Scheduler
from repro.service.workers import WorkerPool

__all__ = [
    "CompileDaemon",
    "DaemonClient",
    "DaemonConfig",
    "DaemonError",
    "FaultInjected",
    "Metrics",
    "OverloadedError",
    "ProtocolError",
    "RetryPolicy",
    "Scheduler",
    "WorkerPool",
    "compile_with_fallback",
    "default_socket_path",
    "request_key",
    "try_connect",
]
