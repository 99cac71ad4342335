"""The supervised process worker pool behind the compile daemon.

Each worker is a long-lived child process holding the state a one-shot
CLI invocation pays for on every request:

* the imported pass registry, frontend, verifier and interpreter
  modules (``preload_modules`` imports them in the daemon *before*
  forking, so children inherit a warm module table and never take the
  import lock);
* one :class:`~repro.pm.manager.PassManager` per ``(level, verify)``
  pair, constructed on first use and reused across requests;
* a :class:`~repro.pm.cache.PassCache` whose in-memory tier is
  per-worker and whose disk tier is shared across the pool (atomic
  write-rename makes concurrent stores safe; the scheduler's
  content-hash sharding sends repeat requests to the same worker, so
  the memory tier stays hot).

Supervision is deliberately dumb: the pool only knows how to spawn,
probe liveness, kill and respawn.  *Policy* — retries, deadlines,
which jobs a dead worker owed — lives in the scheduler.

Wire format on the pipe (pickled tuples):

* supervisor → worker: ``("batch", [job, ...])`` or ``("exit",)``;
* worker → supervisor: ``("result", seq, reply)`` per job, then one
  ``("batch-done", {"stats": ManagerStats.to_jsonable()})``.

A job is the normalized compile request plus ``seq`` (scheduler-global
id), ``attempt`` (0-based execution count, which gates fault
injection) and ``requested_level`` (the level the caller asked for,
which differs from ``level`` once the scheduler has quarantined the
request down the degradation ladder).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from dataclasses import dataclass
from typing import Optional

from repro.service import faults

#: Fork keeps preloaded modules warm and makes respawn-after-crash
#: cheap; the spawn fallback only matters off-Linux.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
_CTX = multiprocessing.get_context(_START_METHOD)


def preload_modules() -> None:
    """Import everything a compile can touch, pre-fork.

    Children therefore never import under load — no import-lock
    deadlocks after forking a threaded daemon, and the first request a
    fresh worker sees costs the same as the thousandth.
    """
    import repro.analysis.manager  # noqa: F401
    import repro.backend  # noqa: F401 — the registry's codegen sequences
    import repro.frontend  # noqa: F401
    import repro.interp  # noqa: F401
    import repro.passes  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.pm  # noqa: F401
    import repro.triage.containment  # noqa: F401
    import repro.verify.lint  # noqa: F401
    import repro.verify.transval  # noqa: F401


@dataclass(frozen=True)
class WorkerConfig:
    """What every worker needs to know at spawn time."""

    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    incident_dir: Optional[str] = None


def _run_job(job: dict, managers: dict, cache, stats, config: WorkerConfig) -> dict:
    """Execute one compile job; always returns a reply, never raises.

    The worker owns only the fault hook and its warm per-(level, verify)
    :class:`PassManager`; the reply itself comes from
    :func:`repro.triage.containment.compile_reply`, the same function
    the in-process fallbacks call.
    """
    from repro.pm.manager import PassManager
    from repro.triage.containment import compile_reply
    from repro.triage.incidents import IncidentStore

    try:
        faults.maybe_trigger(
            job.get("fault"), job.get("attempt", 0), job.get("level")
        )
    except faults.FaultInjected as error:
        return {
            "ok": False,
            "error": {"kind": "injected-error", "message": str(error)},
        }
    level, verify = job["level"], job["verify"]
    manager = None
    if level != "none":
        manager = managers.get((level, verify))
        if manager is None:
            manager = PassManager(level, verify=verify, cache=cache)
            managers[level, verify] = manager
        # fresh stats per batch: the supervisor merges deltas, so a
        # long-lived manager must not re-report old totals
        manager.stats = stats
    # a fresh view per job: sibling workers share the directory, and a
    # long-lived memory tier would count a repeated incident from stale data
    incidents = IncidentStore(config.incident_dir) if config.incident_dir else None
    return compile_reply(
        job, manager=manager, cache=cache, incidents=incidents, stats=stats
    )


def worker_main(conn, config: WorkerConfig, close_fds=()) -> None:
    """The child process loop: batches in, results + stats report out."""
    import os

    from repro.pm.cache import PassCache
    from repro.pm.manager import ManagerStats

    # drop inherited copies of sibling pipes (and, on respawn, any
    # other fork-leaked fds): a worker must only hold its own pipe end,
    # or siblings never see EOF when the supervisor dies uncleanly
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    preload_modules()  # no-op after fork, real work under spawn
    cache = (
        PassCache(config.cache_dir, max_bytes=config.cache_max_bytes)
        if config.cache_dir
        else None
    )
    managers: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "exit":
            return
        stats = ManagerStats()
        for job in message[1]:
            reply = _run_job(job, managers, cache, stats, config)
            try:
                conn.send(("result", job["seq"], reply))
            except (BrokenPipeError, OSError):
                return
        try:
            conn.send(("batch-done", {"stats": stats.to_jsonable()}))
        except (BrokenPipeError, OSError):
            return


class WorkerHandle:
    """One live worker: its process and the supervisor end of the pipe."""

    def __init__(
        self, index: int, config: WorkerConfig, close_fds: tuple = ()
    ) -> None:
        self.index = index
        parent, child = _CTX.Pipe()
        self.conn: multiprocessing.connection.Connection = parent
        # the fork image contains the child's copy of *our* pipe end
        # too — it must go, or the worker keeps its own pipe alive and
        # never sees EOF after a supervisor SIGKILL
        self.process = _CTX.Process(
            target=worker_main,
            args=(child, config, close_fds + (parent.fileno(),)),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child.close()  # the child's copy lives on in the child

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message: tuple) -> None:
        self.conn.send(message)

    def poll(self, timeout: float) -> bool:
        return self.conn.poll(timeout)

    def recv(self) -> tuple:
        return self.conn.recv()

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover — stuck in syscall
                self.process.kill()
                self.process.join(timeout=2.0)
        finally:
            self.conn.close()


class WorkerPool:
    """A fixed-size, respawn-on-demand pool of :class:`WorkerHandle`."""

    def __init__(self, size: int, config: Optional[WorkerConfig] = None) -> None:
        self.size = max(1, int(size))
        self.config = config if config is not None else WorkerConfig()
        self._handles: list[Optional[WorkerHandle]] = [None] * self.size
        #: workers spawned to replace a dead or killed one
        self.restarts = 0

    def start(self) -> None:
        """Spawn the full pool up front (call pre-threading: fork safety)."""
        preload_modules()
        for index in range(self.size):
            if self._handles[index] is None:
                self._handles[index] = WorkerHandle(
                    index, self.config, self._sibling_fds()
                )

    def get(self, index: int) -> WorkerHandle:
        """The live worker for shard ``index``, respawning a dead one."""
        handle = self._handles[index]
        if handle is None or not handle.alive():
            if handle is not None:
                handle.kill()
                self.restarts += 1
            handle = WorkerHandle(index, self.config, self._sibling_fds())
            self._handles[index] = handle
        return handle

    def _sibling_fds(self) -> tuple:
        """Supervisor-side pipe fds a new child must close after fork."""
        fds = []
        for handle in self._handles:
            if handle is not None:
                try:
                    fds.append(handle.conn.fileno())
                except OSError:  # killed: its pipe end is closed
                    pass
        return tuple(fds)

    def kill(self, index: int) -> None:
        """Tear down shard ``index``'s worker; the dead handle stays in its
        slot, so ``get`` respawns it lazily and counts the restart."""
        handle = self._handles[index]
        if handle is not None:
            handle.kill()

    def stop(self) -> None:
        """Terminate every worker; the pool stays usable via ``get``."""
        for index, handle in enumerate(self._handles):
            if handle is not None:
                try:
                    handle.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
                handle.kill()
                self._handles[index] = None

    def alive_count(self) -> int:
        return sum(
            1 for handle in self._handles if handle is not None and handle.alive()
        )
