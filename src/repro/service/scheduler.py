"""Request scheduling: dedup, dispatch-on-idle batching, sharding, retries.

The path of a compile request through the daemon:

1. **submit** — the request is normalized, content-hashed
   (:func:`repro.service.protocol.request_key`) and checked against the
   in-flight table.  An identical request already pending or running
   just attaches another :class:`concurrent.futures.Future` to the
   existing job (``dedup_hits``); the compile runs once and fans its
   reply out.
   When the table is at ``max_pending``, the request is shed with
   :class:`~repro.service.faults.OverloadedError` instead of queueing.
2. **batch** — an accepted job joins its shard's pending list; no
   timer holds it.  Whenever the shard's worker is free, the shard's
   dispatcher sends everything pending, up to :data:`MAX_BATCH` jobs,
   as one batch.  A lone request leaves at once; requests that queue
   behind a busy worker share one pipe round trip.
3. **shard** — a job's shard is worker ``hash(key) % pool.size``.
   Hash affinity means a repeated request always lands on the worker
   whose in-memory cache already holds it.
4. **dispatch** — one dispatcher thread per shard sends batches down
   the pipe and collects per-job results.  Worker death (EOF) retries
   the batch's unfinished jobs elsewhere in time (same shard, fresh
   worker) under the :class:`~repro.service.faults.RetryPolicy`;
   jobs past their deadline are answered ``timeout`` and the stuck
   worker is killed.  The pool respawns a killed or dead worker when
   its shard's next batch is due, and counts each respawn once.
5. **quarantine** — a request that kills workers through its *whole*
   retry budget is a poison pill: instead of a terminal
   ``worker-crash``, the scheduler steps its level one rung down the
   :data:`~repro.pipeline.levels.DEGRADATION_LADDER`, resets the
   budget, and remembers the key → level mapping so later submits of
   the same request start at the surviving level.  Only when the
   bottom rung (``none``) still kills workers does the caller see
   ``worker-crash``.  The job sent to the worker carries the caller's
   ``requested_level``, so the worker's reply for a stepped-down
   request carries ``degraded``/``level``/``requested_level`` itself
   (docs/ROBUSTNESS.md).

Everything here is policy over :class:`~repro.service.workers.
WorkerPool` mechanism; the module has no socket knowledge and is
driven directly by the unit tests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Optional

from repro.pipeline.levels import ladder_next
from repro.service import protocol
from repro.service.faults import OverloadedError, RetryPolicy, validate_fault
from repro.service.metrics import Metrics
from repro.service.workers import WorkerPool

#: The most pending jobs a free worker is sent as one batch.
MAX_BATCH = 16


class Job:
    """One unit of deduped work: a request plus every waiter's future."""

    __slots__ = (
        "seq",
        "key",
        "request",
        "futures",
        "attempt",
        "enqueued",
        "deadline",
        "shard",
        "done",
        "requested",
    )

    def __init__(self, seq: int, key: str, request: dict, deadline: float) -> None:
        self.seq = seq
        self.key = key
        self.request = request
        #: every waiter's future, and whether it joined an existing job
        self.futures: list[tuple[Future, bool]] = []
        self.attempt = 0
        self.enqueued = time.monotonic()
        self.deadline = deadline
        self.shard = 0
        self.done = False
        #: the level the *caller* asked for; ``request["level"]`` steps
        #: down the degradation ladder when the key quarantines
        self.requested = request["level"]


class Scheduler:
    """Dedup + batch + shard + retry policy over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        metrics: Optional[Metrics] = None,
        *,
        max_pending: int = 256,
        request_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.pool = pool
        self.metrics = metrics if metrics is not None else Metrics()
        self.max_pending = max(1, int(max_pending))
        self.request_timeout = request_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._jobs: dict[str, Job] = {}
        #: poison-pill quarantine: request key → the ladder level this
        #: key last had to step down to after killing workers through a
        #: full retry budget.  Later submits of the same key start at
        #: the quarantined level instead of killing workers all over
        #: again (``quarantine_hits``).
        self._quarantine: dict[str, str] = {}
        self._lock = threading.Lock()
        #: per shard: accepted jobs not yet sent to its worker, and the
        #: condition (over ``_lock``) its dispatcher waits on
        self._pending: list[list[Job]] = [[] for _ in range(pool.size)]
        self._ready = [threading.Condition(self._lock) for _ in range(pool.size)]
        self._seq = 0
        self._stopped = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.pool.start()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(index,),
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            for index in range(self.pool.size)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for ready in self._ready:
                ready.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self.pool.stop()
        # anything pending or still running will never be answered by a
        # worker; fail it cleanly
        with self._lock:
            orphans = list(self._jobs.values())
            self._jobs.clear()
            for pending in self._pending:
                pending.clear()
        for job in orphans:
            self._fail(job, "worker-crash", "daemon shutting down", track=False)

    # -- intake ------------------------------------------------------------------

    def submit(self, message: dict) -> Future:
        """Accept one compile request; returns the caller's future.

        Raises :class:`~repro.service.protocol.ProtocolError` on a
        malformed request and :class:`OverloadedError` under load
        shedding — both before any state is created.
        """
        request = protocol.validate_compile(message)
        if request["fault"] is not None:
            try:
                request["fault"] = validate_fault(request["fault"])
            except ValueError as error:
                raise protocol.ProtocolError(str(error)) from None
        key = protocol.request_key(
            request["kind"], request["text"], request["level"], request["verify"]
        )
        future = Future()
        with self._lock:
            if self._stopped:
                raise OverloadedError("scheduler stopped")
            self.metrics.inc("requests_total")
            job = self._jobs.get(key)
            if job is not None and not job.done:
                job.futures.append((future, True))
                self.metrics.inc("dedup_hits")
                return future
            if len(self._jobs) >= self.max_pending:
                self.metrics.inc("overloaded")
                raise OverloadedError(
                    f"{len(self._jobs)} requests pending (max {self.max_pending})"
                )
            self._seq += 1
            job = Job(
                self._seq, key, request, time.monotonic() + self.request_timeout
            )
            quarantined = self._quarantine.get(key)
            if quarantined is not None and request.get("on_error") != "raise":
                # a known poison pill: start at the level it survived
                # instead of feeding it workers at the lethal one
                job.request["level"] = quarantined
                self.metrics.inc("quarantine_hits")
            job.shard = int(key[:8], 16) % self.pool.size
            job.futures.append((future, False))
            self._jobs[key] = job
            self._pending[job.shard].append(job)
            self._ready[job.shard].notify()
        return future

    def gauges(self) -> dict:
        """Scheduler state for the ``stats`` reply: point-in-time gauges,
        plus every worker respawn the pool has made (``worker_restarts``)."""
        with self._lock:
            inflight = len(self._jobs)
            buffered = sum(len(pending) for pending in self._pending)
            quarantined = len(self._quarantine)
        return {
            "inflight": inflight,
            "buffered": buffered,
            "workers": self.pool.size,
            "workers_alive": self.pool.alive_count(),
            "worker_restarts": self.pool.restarts,
            "quarantined_keys": quarantined,
        }

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_loop(self, index: int) -> None:
        """Shard ``index``'s dispatcher: send what is pending when idle."""
        pending, ready = self._pending[index], self._ready[index]
        while True:
            with self._lock:
                while not self._stopped and not pending:
                    ready.wait()
                if self._stopped:
                    return
                jobs = pending[:MAX_BATCH]
                del pending[:MAX_BATCH]
            self.metrics.inc("batches")
            self.metrics.inc("batched_jobs", len(jobs))
            while jobs and not self._stopped:
                jobs = self._run_batch(index, jobs)
                if jobs:
                    # all survivors share the batch's first retry tier
                    time.sleep(self.retry.delay(jobs[0].attempt))

    def _run_batch(self, index: int, jobs: list[Job]) -> list[Job]:
        """Send one batch to shard ``index``; returns jobs to retry."""
        handle = self.pool.get(index)
        payload = [
            {
                **job.request,
                "seq": job.seq,
                "attempt": job.attempt,
                "requested_level": job.requested,
            }
            for job in jobs
        ]
        remaining = {job.seq: job for job in jobs}
        try:
            handle.send(("batch", payload))
            while True:
                deadline = min(job.deadline for job in remaining.values()) \
                    if remaining else time.monotonic() + 5.0
                wait = deadline - time.monotonic()
                if wait <= 0 or not handle.poll(max(wait, 0.001)):
                    return self._reap(index, remaining, timed_out=True)
                message = handle.recv()
                if message[0] == "result":
                    job = remaining.pop(message[1], None)
                    if job is not None:
                        self._fulfill(job, message[2])
                elif message[0] == "batch-done":
                    self.metrics.merge_worker_stats(message[1]["stats"])
                    # a well-behaved worker answered everything first
                    return self._reap(index, remaining, timed_out=False)
        except (EOFError, BrokenPipeError, OSError):
            return self._reap(index, remaining, timed_out=False)

    def _reap(
        self, index: int, remaining: dict[int, "Job"], *, timed_out: bool
    ) -> list[Job]:
        """Kill a dead/stuck worker; split its unanswered jobs into
        retry/fail."""
        if not remaining:
            return []
        self.pool.kill(index)
        self.metrics.inc("timeouts" if timed_out else "worker_crashes")
        now = time.monotonic()
        retry: list[Job] = []
        for job in remaining.values():
            if now >= job.deadline:
                self._fail(job, "timeout",
                           f"no reply within {self.request_timeout}s")
            elif job.attempt + 1 >= self.retry.max_attempts:
                step = (
                    ladder_next(job.request["level"])
                    if job.request.get("on_error") != "raise"
                    else None
                )
                if step is not None:
                    # poison pill: this key killed a worker through the
                    # whole retry budget at this level — quarantine it
                    # one rung down the degradation ladder and retry
                    # there with a fresh attempt budget
                    job.request["level"] = step
                    job.attempt = 0
                    with self._lock:
                        self._quarantine[job.key] = step
                    self.metrics.inc("quarantined")
                    retry.append(job)
                else:
                    self._fail(
                        job,
                        "worker-crash",
                        f"worker died {job.attempt + 1} times running "
                        "this request",
                    )
            else:
                job.attempt += 1
                self.metrics.inc("retries")
                retry.append(job)
        return retry

    # -- completion --------------------------------------------------------------

    def _finish(self, job: Job) -> bool:
        """Retire ``job``; False if it was already answered."""
        with self._lock:
            if job.done:
                return False
            job.done = True
            if self._jobs.get(job.key) is job:
                del self._jobs[job.key]
            return True

    def _fulfill(self, job: Job, reply: dict, track: bool = True) -> None:
        if not self._finish(job):
            return  # stop() failed it while a worker was still answering
        if track:
            self.metrics.latency.observe(time.monotonic() - job.enqueued)
            self.metrics.inc("replies_ok" if reply.get("ok") else "replies_error")
            if reply.get("degraded"):
                self.metrics.inc("degraded_replies")
        for future, deduped in job.futures:
            future.set_result(
                {**reply, "attempts": job.attempt + 1, "deduped": deduped}
            )

    def _fail(self, job: Job, kind: str, message: str, track: bool = True) -> None:
        reply = {"ok": False, "error": {"kind": kind, "message": message}}
        self._fulfill(job, reply, track)
