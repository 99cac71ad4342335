"""The one content-addressed store behind every cache in the repo.

:class:`~repro.pm.cache.PassCache`, :class:`~repro.pm.cache.
ArtifactStore`, :class:`~repro.profile.store.ProfileStore` and
:class:`~repro.triage.incidents.IncidentStore` are thin views over
:class:`ContentStore`: each picks its key, its file ``suffix`` and its
``encode``/``decode``, plus one domain rule of its own.  The entry rules
live here and nowhere else (docs/ROBUSTNESS.md):

* **One sealed format.**  A disk entry is ``<key><suffix>`` holding
  ``#sha256:<hex>\\n<payload>``, the checksum taken over the payload.
* **Atomic publish.**  :func:`atomic_write_text` writes a temp file and
  ``os.replace``\\ s it, so any number of processes can share a
  directory and readers never see a half-written entry.
* **Never a corrupt hit.**  A torn, corrupt or edited entry fails its
  checksum (or its decode), is unlinked, and reads as a miss; the next
  put heals the slot.
* **Never a failed put.**  The disk tier is an optimization: a write
  that fails keeps the entry in memory and bumps ``write_failures``.
* **A memory tier of decoded values**, so a memory hit decodes
  nothing.  It is LRU-bounded by ``memory_entries`` when set, and by
  ``max_bytes`` of encoded payload, the same byte cap as the disk.
* **Bounded disk.**  ``max_bytes`` / ``max_entries`` caps prune the
  directory least-recently-*accessed* first.  Each disk hit re-touches
  its file (``os.utime``), so recency survives ``noatime`` mounts and is
  shared by every process on the directory.  A capped view estimates
  its directory from above (what its last scan left plus its own puts
  since), and a put below the cap lists nothing: after its first put,
  the view scans and prunes only once its puts since the last scan
  reach an eighth of the headroom that scan left (:data:`RESCAN_SHARE`).
  With one writer that comes before the directory can pass a cap, so
  eviction removes the same files on the same put as pruning after
  every put.  Writers sharing a directory see each other's puts only
  when they scan, and each can add an eighth of the headroom its own
  last scan saw: k writers can pass the cap by up to (k-1)/8 of it,
  plus an entry each.  Only puts made on a scan from before the
  directory reached the cap can do that; a writer that has scanned at
  the cap adds about an entry before it scans again.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Optional

#: First line of every disk entry: ``#sha256:<hex>`` over the payload.
SEAL_PREFIX = "#sha256:"

#: A capped view rescans once its own puts since its last scan reach
#: ``1/RESCAN_SHARE`` of the headroom that scan left.  Less than all of
#: it, so one writer scans before its directory can pass a cap.  Other
#: writers' puts stay unseen until then, so k writers can pass a cap by
#: up to ``(k - 1) / RESCAN_SHARE`` of it; a larger share buys a smaller
#: worst case with more scans while the directory fills.  The worst
#: case needs writers idle while another fills the directory; the
#: serving workloads interleave their puts (docs/SERVICE.md).
RESCAN_SHARE = 8


def content_key(*parts: str) -> str:
    """The SHA-256 content address of ``parts`` joined by NUL bytes."""
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


def seal(payload: str) -> str:
    """``payload`` with its integrity header prepended."""
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{SEAL_PREFIX}{digest}\n{payload}"


def unseal(raw: str) -> str:
    """The verified payload; ``ValueError`` for torn, corrupt or edited data."""
    header, _, payload = raw.partition("\n")
    if header != SEAL_PREFIX + hashlib.sha256(payload.encode()).hexdigest():
        raise ValueError("entry fails its checksum")
    return payload


def atomic_write_text(directory: str, path: str, text: str) -> None:
    """Publish ``text`` at ``path`` atomically under concurrent writers.

    The payload lands in a uniquely named temp file in the same
    directory, then ``os.replace`` makes it visible in one step —
    readers see either the old entry or the complete new one, never a
    torn write, no matter how many processes store the same key.

    A concurrent ``clear()`` may remove the directory or unlink the
    temp file between write and rename; that shows up as
    ``FileNotFoundError`` from ``mkstemp`` or ``replace`` and is
    retried once after recreating the directory (the second attempt can
    only lose the same race to another full ``clear``, at which point
    the entry is *supposed* to be gone and giving up is correct).
    """
    for attempt in (0, 1):
        tmp = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
            return
        except FileNotFoundError:
            if attempt:
                return  # lost twice to clear(): the entry should not exist
        except BaseException:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise


class ContentStore:
    """Memory tier plus optional directory of sealed entries.

    Subclasses set :attr:`suffix` and override :meth:`encode` /
    :meth:`decode` (the default stores ``str`` values as-is).  Counters
    (``hits``, ``misses``, ``puts``, ``evictions``, ``write_failures``)
    are thread-safe; :meth:`clear` zeroes them.
    """

    suffix = ".entry"

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        memory_entries: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        #: key → (decoded value, encoded payload bytes)
        self._memory: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._memory_bytes = 0
        self._lock = threading.Lock()
        self.hits = self.misses = self.puts = 0
        self.evictions = self.write_failures = 0
        #: (entries, bytes) this view has written to disk under a cap
        self._written = (0, 0)
        #: (entries, bytes) the last scan left, and ``_written`` as it began
        self._last_scan: Optional[tuple[tuple[int, int], tuple[int, int]]] = None

    def encode(self, value: Any) -> str:
        return value

    def decode(self, payload: str) -> Any:
        return payload

    # -- read/write --------------------------------------------------------------

    def load(self, key: str) -> Any:
        """The stored value for ``key``, or ``None`` (counting hit/miss)."""
        value = self._fetch(key)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def save(self, key: str, value: Any) -> None:
        """Publish ``value`` under ``key``: memory now, disk when it can."""
        payload = self.encode(value)
        with self._lock:
            self.puts += 1
            self._remember(key, value, payload)
        if not self.directory:
            return
        sealed = seal(payload)
        try:
            atomic_write_text(self.directory, self._path(key), sealed)
        except OSError:
            with self._lock:
                self.write_failures += 1
            return
        if self.max_bytes is None and self.max_entries is None:
            return
        with self._lock:
            entries, size = self._written
            self._written = (entries + 1, size + len(sealed.encode()))
            due = self._rescan_due()
        if due:
            self.prune()

    def _rescan_due(self) -> bool:
        """Whether this view's puts since its last scan reach
        ``1/RESCAN_SHARE`` of the headroom that scan left under either
        cap; always before a first scan.  The caller holds the lock.

        What the scan left plus every put since bounds the directory
        from above while this view is its only writer (a re-put or a
        file deleted by someone else only brings the scan forward), so
        a put that leaves the directory past a cap always prunes.
        """
        if self._last_scan is None:
            return True
        left, before = self._last_scan
        return any(
            cap is not None and RESCAN_SHARE * (now - then) >= cap - seen
            for cap, seen, now, then in zip(
                (self.max_entries, self.max_bytes), left, self._written, before
            )
        )

    def _fetch(self, key: str) -> Any:
        """Memory, then disk; uncounted.  Bad disk entries are dropped."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                return entry[0]
        if not self.directory:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = unseal(handle.read())
            value = self.decode(payload)
        except OSError:
            return None  # absent, or evicted/cleared mid-read: plain miss
        except (ValueError, KeyError, TypeError):
            # torn, corrupt or edited: drop it so it cannot keep costing
            # a read, and let the next put heal the slot
            with contextlib.suppress(OSError):
                os.unlink(path)
            return None
        with contextlib.suppress(OSError):
            os.utime(path)
        with self._lock:
            self._remember(key, value, payload)
        return value

    def _remember(self, key: str, value: Any, payload: str) -> None:
        """Insert into the memory tier, evicting LRU past either cap.

        ``payload`` is ``value`` encoded; its bytes count against
        ``max_bytes``.  The caller holds the lock.
        """
        size = len(payload.encode())
        previous = self._memory.pop(key, None)
        if previous is not None:
            self._memory_bytes -= previous[1]
        self._memory[key] = (value, size)
        self._memory_bytes += size
        cap = self.memory_entries
        while self._memory and (
            (cap is not None and len(self._memory) > cap)
            or (self.max_bytes is not None and self._memory_bytes > self.max_bytes)
        ):
            _, (_, evicted) = self._memory.popitem(last=False)
            self._memory_bytes -= evicted

    # -- maintenance -------------------------------------------------------------

    def keys(self) -> list[str]:
        """Every key held in memory or on disk, sorted."""
        with self._lock:
            found = set(self._memory)
        found.update(
            name[: -len(self.suffix)]
            for name in self._listdir()
            if name.endswith(self.suffix)
        )
        return sorted(found)

    def prune(self) -> int:
        """Evict disk entries LRU-first until both caps hold; returns count.

        Safe under concurrency: entries may vanish between the listing
        and the ``stat``/``unlink`` (another pruner got there first, or
        ``clear`` swept the directory) — each loss is skipped, never
        fatal, and readers of evicted keys fall back to a miss.
        """
        with self._lock:
            written = self._written  # puts from here on may miss the scan
        entries = sorted(self._scan())  # oldest access first
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for index, (_, size, path) in enumerate(entries):
            if not (
                (self.max_bytes is not None and total > self.max_bytes)
                or (
                    self.max_entries is not None
                    and len(entries) - index > self.max_entries
                )
            ):
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        with self._lock:
            self.evictions += evicted
            self._last_scan = ((len(entries) - evicted, total), written)
        return evicted

    def clear(self) -> None:
        """Drop every entry (memory and disk) and zero the counters."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            self.hits = self.misses = self.puts = 0
            self.evictions = self.write_failures = 0
            self._last_scan = ((0, 0), self._written)
        for name in self._listdir():
            if name.endswith((self.suffix, ".tmp")):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(self.directory, name))

    def stats(self) -> dict:
        """Counters plus the entry and byte totals of the disk tier."""
        scan = self._scan()
        with self._lock:
            held = len(self._memory)
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "write_failures": self.write_failures,
            }
        lookups = counters["hits"] + counters["misses"]
        return {
            "directory": self.directory,
            "entries": len(scan) if self.directory else held,
            "bytes": sum(size for _, size, _ in scan),
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            **counters,
            "hit_ratio": round(counters["hits"] / lookups, 4) if lookups else 0.0,
        }

    def __len__(self) -> int:
        return len(self.keys())

    def _listdir(self) -> list[str]:
        if not self.directory:
            return []
        try:
            return os.listdir(self.directory)
        except OSError:
            return []  # not created yet, or swept by a concurrent clear()

    def _scan(self) -> list[tuple[float, int, str]]:
        """``(recency, size, path)`` of every disk entry still present."""
        entries = []
        for name in self._listdir():
            if not name.endswith(self.suffix):
                continue
            path = os.path.join(self.directory, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append(
                (max(status.st_atime, status.st_mtime), status.st_size, path)
            )
        return entries

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + self.suffix)
