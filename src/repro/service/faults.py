"""Robustness machinery: retry policy, backpressure, fault injection.

The daemon's failure-mode contract (tested by ``tests/test_service.py``
and driven under load by ``repro bench serve``):

* a worker that **dies** mid-batch is respawned; its unfinished jobs are
  retried with exponential backoff up to ``RetryPolicy.max_attempts``,
  then answered with a structured ``worker-crash`` error;
* a request that outlives its **deadline** gets a ``timeout`` error and
  the stuck worker is killed (a wedged compile cannot be interrupted
  from outside the process), so the shard heals;
* when the scheduler's pending-job table is full, new work is **shed**
  immediately with an ``overloaded`` reply instead of queueing without
  bound — callers see backpressure, never a hang.

Crash injection is how the tests exercise all of that without real
bugs: a compile request may carry ``"fault": {"kind": "crash"|"hang"|
"error", "attempts": K, "seconds": S}``.  The fault fires while the
job's attempt counter is below ``attempts`` (so ``crash`` with
``attempts: 1`` kills the worker exactly once and the retry succeeds)
and is ignored afterwards.  Faults are excluded from the request key —
see :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

#: Exit status a crash-injected worker dies with (distinguishable from
#: a real interpreter fault in the supervisor's logs).
CRASH_EXIT_STATUS = 23


class OverloadedError(Exception):
    """The bounded scheduler queue is full; the request was shed."""


class FaultInjected(Exception):
    """An ``error``-kind injected fault (replied as ``injected-error``)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with jittered exponential backoff: the scheduler's
    worker-death recovery, the client's connect loop and the fleet
    supervisor's shard respawns.

    ``max_attempts`` counts executions, not retries: the default 3
    allows the first run plus two retries.  The backoff *ceiling*
    before retry *n* (1-based) is ``backoff * 2**(n-1)`` capped at
    ``backoff_cap``; the actual delay is drawn uniformly from
    ``[0, ceiling]`` ("full jitter") so a whole fleet of retriers hit
    by one event does not resynchronize into thundering-herd retries.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_cap: float = 1.0

    def ceiling(self, attempt: int) -> float:
        """The deterministic backoff cap before retry ``attempt`` (1-based)."""
        return min(self.backoff * (2 ** max(0, attempt - 1)), self.backoff_cap)

    def delay(self, attempt: int) -> float:
        """Seconds to wait before running attempt ``attempt`` (1-based retry)."""
        return random.uniform(0.0, self.ceiling(attempt))


def validate_fault(fault: dict) -> dict:
    """Normalize an injection spec (raises ``ValueError`` on nonsense).

    An optional ``"levels"`` list restricts the fault to firing only
    when the job runs at one of those optimization levels — that is how
    the chaos bench builds a *poison pill*: a request that kills every
    worker at the requested level but compiles fine once the scheduler
    quarantines it down the degradation ladder.
    """
    kind = fault.get("kind")
    if kind not in ("crash", "hang", "error"):
        raise ValueError(f"unknown fault kind {kind!r}")
    attempts = int(fault.get("attempts", 1))
    seconds = float(fault.get("seconds", 0.0))
    if attempts < 0 or seconds < 0:
        raise ValueError("fault attempts/seconds must be non-negative")
    normalized = {"kind": kind, "attempts": attempts, "seconds": seconds}
    if "levels" in fault:
        levels = fault["levels"]
        if not isinstance(levels, (list, tuple)) or not all(
            isinstance(level, str) for level in levels
        ):
            raise ValueError("fault levels must be a list of level names")
        normalized["levels"] = sorted(levels)
    return normalized


def maybe_trigger(fault: dict | None, attempt: int, level: str | None = None) -> None:
    """Fire ``fault`` inside a worker if ``attempt`` is still covered.

    Runs *before* the compile so cache warmth can never mask a crash.
    ``crash`` exits the process hard (no cleanup — that is the point),
    ``hang`` sleeps ``seconds`` then lets the job proceed, ``error``
    raises :class:`FaultInjected`.  A level-gated fault (``"levels"``)
    stays dormant when the job runs at a level outside its list.
    """
    if not fault or attempt >= int(fault.get("attempts", 1)):
        return
    levels = fault.get("levels")
    if levels and level not in levels:
        return
    kind = fault.get("kind")
    if kind == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if kind == "hang":
        time.sleep(float(fault.get("seconds", 0.0)))
        return
    if kind == "error":
        raise FaultInjected(
            fault.get("message", "injected error (fault kind 'error')")
        )
    raise ValueError(f"unknown fault kind {kind!r}")
