"""The distributed compile fleet.

A :class:`~repro.service.fleet.gateway.FleetGateway` fronts N shard
daemons (each a full :class:`~repro.service.daemon.CompileDaemon`, run
from a :class:`~repro.service.daemon.DaemonConfig` the gateway builds)
behind one Unix socket speaking the ordinary wire protocol, adding:

* rendezvous-hash routing on request keys (:mod:`.hashring`),
* a shared content-addressed artifact store
  (:class:`~repro.pm.cache.ArtifactStore`) so any shard serves any
  warm key,
* tiered O1→O2 compilation with background upgrades,
* per-tenant token-bucket quotas (:mod:`.quota`), and
* supervised shard respawn (backoff under the service's one
  :class:`~repro.service.faults.RetryPolicy`) with deterministic
  failover.

Use :class:`~repro.service.fleet.gateway.FleetHandle` from synchronous
code (CLI, bench, tests).
"""

from repro.service.fleet.gateway import (
    GATEWAY_COUNTERS,
    FleetConfig,
    FleetGateway,
    FleetHandle,
    ShardUnavailable,
)
from repro.service.fleet.quota import QuotaManager, TokenBucket
from repro.service.fleet.shards import ShardProcess, spawn_shards

__all__ = [
    "FleetConfig",
    "FleetGateway",
    "FleetHandle",
    "GATEWAY_COUNTERS",
    "QuotaManager",
    "ShardProcess",
    "ShardUnavailable",
    "TokenBucket",
    "spawn_shards",
]
