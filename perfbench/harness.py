"""Shared plumbing for the repository benchmark.

Everything here is independent of the workload: the span tracer that
times layers from outside, the percentile helper, the set-up timer, the
oracles (Python references, committed artifacts) and the provenance
record.  Nothing in this module imports ``repro``, so ``run.py`` can
fail cleanly when the package is missing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times one run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: The tolerance ``tests/test_suite_programs.py`` uses against references.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def percentile(samples: list, fraction: float) -> float:
    """Quantile (``fraction`` in [0, 1]) of ``samples``, interpolated
    linearly between the two nearest ranks, so that it moves smoothly
    where the samples are sparse."""
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_mean(samples: list, fraction: float = 0.9) -> float:
    """Mean of the samples at or above the ``fraction`` quantile.

    Unlike the quantile itself it does not step when one sample crosses
    a gap in the distribution: each sample of the tail moves it by only
    its share.
    """
    ordered = sorted(samples)
    tail = ordered[min(int(fraction * len(ordered)), len(ordered) - 1):]
    return sum(tail) / len(tail)


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for calls the benchmark makes into layers.

    ``span(name)`` times one call; nested spans are children of the
    innermost open span.  A layer's *self* time is its spans' durations
    minus the parts their child spans cover.  Each thread nests its own
    spans; finished spans are kept in memory as ``(name, start, end,
    parent name)`` tuples, read from ``clock``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, Optional[str]]] = []
        self.self_time: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        frame = [name, self.clock(), 0.0]  # name, start, child seconds
        stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - frame[1]
            if parent is not None:
                parent[2] += duration
            with self._lock:
                self.spans.append((name, frame[1], end, parent and parent[0]))
                self.self_time[name] = (
                    self.self_time.get(name, 0.0) + duration - frame[2]
                )

    def total(self, prefix: str) -> float:
        """Summed self time of every span named ``prefix`` or ``prefix.*``."""
        return sum(
            seconds for name, seconds in self.self_time.items()
            if name == prefix or name.startswith(prefix + ".")
        )


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


# -- host speed --------------------------------------------------------------------

#: CPU seconds the calibration loop takes at the reference host speed.
REFERENCE_CALIBRATION_S = 0.003


def calibration_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    started = time.thread_time()
    table: dict = {}
    for i in range(30_000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.thread_time() - started


def every_cpu_calibration_seconds() -> float:
    """Mean of ``calibration_seconds`` timed on each CPU this process may
    use in turn: the vCPUs of a shared host can differ by a third."""
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})  # 0: this thread only
            samples.append(calibration_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


class HostSpeed:
    """Scales CPU seconds to reference seconds.

    The benchmark runs on shared hosts whose speed drifts by tens of
    percent within seconds, which no longer run averages away.  Work is
    timed between calibration marks: ``factor()`` times the calibration
    loop once more and returns the reference loop time over the mean of
    this mark and the previous one.  Times multiplied by it are what the
    work would have taken at the reference speed; the loop runs no code
    of the program, so a faster program still reads faster.

    Single-threaded work is marked on the CPU it runs on; work spread
    over processes (``every_cpu``) is marked on each CPU in turn.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.mark = every_cpu_calibration_seconds if every_cpu else calibration_seconds
        self.last = self.mark()

    def factor(self) -> float:
        now = self.mark()
        factor = 2 * REFERENCE_CALIBRATION_S / (self.last + now)
        self.last = now
        return factor


class GcPauses:
    """This thread's CPU seconds spent in full garbage collections.

    A full (oldest-generation) collection scans every live object of
    the process, so its length depends on the heap, not on the call it
    happens to interrupt.  While entered, ``seconds`` is the running
    total of the full collections so far.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.thread_time()
        elif self._started is not None:
            self.seconds += time.thread_time() - self._started
            self._started = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


# -- set-up timing -----------------------------------------------------------------


def time_cold_imports(snippet: str, repeats: int = SETUP_REPEATS) -> list:
    """Wall seconds of ``repeats`` fresh interpreters running ``snippet``,
    each scaled to reference seconds by ``HostSpeed`` marks taken in this
    process, which is idle while the child runs.

    This is what a user pays before the first compile: interpreter
    start, the package imports and the suite load.  Each child must
    exit 0.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    speed = HostSpeed()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append((time.perf_counter() - started) * speed.factor())
    return samples


# -- oracles -----------------------------------------------------------------------


def approx_equal(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return False
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


def reference_outcome(routine) -> tuple:
    """(return value, final arrays) of the routine's Python reference."""
    arrays = [list(values) for values, _ in routine.arrays]
    value = routine.reference(*routine.args, *arrays)
    return value, arrays


def matches_reference(value, arrays, expected: tuple) -> bool:
    want_value, want_arrays = expected
    if (want_value is not None or value is not None) and not approx_equal(
        value, want_value
    ):
        return False
    if len(arrays) != len(want_arrays):
        return False
    return all(
        len(got) == len(want) and all(map(approx_equal, got, want))
        for got, want in zip(arrays, want_arrays)
    )


def committed_table1() -> dict:
    """Per-routine dynamic counts from ``results/table1.txt``.

    Returns ``{routine: {level: ops}}`` for the four Table 1 levels.
    """
    rows: dict = {}
    levels = ("baseline", "partial", "reassociation", "distribution")
    lines = (ROOT / "results" / "table1.txt").read_text().splitlines()
    for line in lines[2:]:
        fields = line.split()
        if not fields:
            continue
        # the four counts are the row's only fields without a '%'
        counts = [int(f.replace(",", "")) for f in fields[1:] if "%" not in f]
        rows[fields[0]] = dict(zip(levels, counts))
    return rows


def committed_backend() -> dict:
    """``BENCH_backend.json``: ``{routine: {k: distribution cycles}}``."""
    data = json.loads((ROOT / "BENCH_backend.json").read_text())
    return {
        name: {
            int(k): cell["cycles"]
            for k, cell in entry["levels"]["distribution"].items()
        }
        for name, entry in data["routines"].items()
    }


def committed_spec_total() -> int:
    """The ``spec`` suite total recorded in ``BENCH_lospre.json``."""
    return json.loads((ROOT / "BENCH_lospre.json").read_text())["totals"]["lospre"]


# -- provenance --------------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_digest() -> str:
    """sha256 over ``src/repro/**/*.py``: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool, clients: int, loop: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "clients": clients,
        "loop": loop,
    }


# -- results -----------------------------------------------------------------------


class Result:
    """Counts operations and failures, collects metrics, prints the verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}

    def check(self, ok: bool, what: Callable[[], str] | str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what() if callable(what) else what)

    def require(self, ok: bool, what: str) -> None:
        """A cross-check that is not an operation: failing it flips
        ``correct`` without changing the operation counts."""
        if not ok:
            self.problems.append(what)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def emit(self, info: dict, units: dict) -> None:
        """Print the human summary, then the one-line JSON verdict.

        ``units`` maps every metric the verdict must carry to its unit;
        each must have been measured.
        """
        for problem in self.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        fail_share = self.failed / self.attempted if self.attempted else 1.0
        print(json.dumps({**info, "fail_share": fail_share}, sort_keys=True))
        for name, unit in units.items():
            print(f"  {name:<34} {self.metrics[name]:>16.6g} {unit}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }))
