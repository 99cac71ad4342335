"""Shard lifecycle: spawn, probe, kill and respawn PR-4 daemons.

A *shard* is one complete :class:`~repro.service.daemon.CompileDaemon`
— scheduler, worker pool, metrics — running in a child process and
listening on its own Unix socket under the fleet's runtime directory.
The gateway owns N of these and talks to each over the ordinary wire
protocol, so a shard is exactly the daemon a user could run by hand;
the fleet adds nothing *inside* the shard.

Spawning uses the same fork-server discipline as the worker pool
(:mod:`repro.service.workers`): the gateway preloads the compile
surface once, children inherit the warm module table, and a respawn
after a crash costs a fork, not an import storm.  The child installs
SIGTERM → clean daemon stop, so both supervised restarts and fleet
shutdown reap worker grandchildren properly.  ``kill()`` (SIGKILL) is
deliberately unclean — it is the failover drill used by the bench and
CI, and the daemon's claim-socket logic plus the worker pipe-fd
hygiene are what make the respawn safe afterwards.

Shard identities (``shard-0`` … ``shard-N-1``) are *slots*: a respawn
reuses the id and socket path with a bumped ``generation``, so
rendezvous routing re-converges on the same mapping once the slot is
back.
"""

from __future__ import annotations

import os
import signal
import time

from repro.service import protocol
from repro.service.daemon import CompileDaemon, DaemonConfig
from repro.service.workers import _CTX, preload_modules


def _shard_main(config: DaemonConfig) -> None:
    """Child entry: run one compile daemon until SIGTERM/socket close."""
    daemon = CompileDaemon(config)

    def _terminate(signum, frame):  # noqa: ARG001
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        daemon.start()
        daemon.serve_forever()
    finally:
        daemon.stop()


class ShardProcess:
    """One shard slot: id, daemon config, live process, generation."""

    def __init__(self, shard_id: str, config: DaemonConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.socket_path = config.socket_path
        self.generation = 0
        self.process = None

    def spawn(self) -> None:
        """Fork a fresh daemon for this slot (bumps the generation)."""
        if self.process is not None and self.process.is_alive():
            return
        # a SIGKILLed predecessor leaves its socket file behind; the
        # daemon's stale-socket claim handles it, but unlinking here
        # keeps the "not yet accepting" window unambiguous for probes
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self.generation += 1
        # NOT daemonic: the shard forks its own worker children, which
        # the multiprocessing daemon flag forbids.  Cleanup is owned by
        # terminate()/the gateway shutdown path instead.
        self.process = _CTX.Process(
            target=_shard_main,
            args=(self.config,),
            name=f"repro-{self.shard_id}-gen{self.generation}",
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def wait_ready(self, timeout: float = 15.0) -> bool:
        """Block (supervisor-side) until accepting, or give up."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if protocol.listening(self.socket_path):
                return True
            if not self.alive():
                return False
            time.sleep(0.02)
        return False

    def terminate(self) -> None:
        """Clean stop: SIGTERM, bounded join, escalate to SIGKILL."""
        if self.process is None:
            return
        self.process.terminate()
        self.process.join(timeout=3.0)
        if self.process.is_alive():  # pragma: no cover — wedged daemon
            self.process.kill()
            self.process.join(timeout=2.0)
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def kill(self) -> None:
        """SIGKILL, no cleanup — the failover drill."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=2.0)


def spawn_shards(configs: list[DaemonConfig]) -> list[ShardProcess]:
    """Spawn one shard per daemon config, ``shard-0`` first (call before
    any event loop exists)."""
    preload_modules()
    shards = []
    for index, config in enumerate(configs):
        shard = ShardProcess(f"shard-{index}", config)
        shard.spawn()
        shards.append(shard)
    return shards
