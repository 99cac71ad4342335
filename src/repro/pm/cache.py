"""Content-addressed IR cache and the fleet's artifact store.

The Table 1 / Table 2 / ablation sweeps recompile the same routines at
several levels, and repeated CLI invocations recompile everything from
scratch.  The cache keys an optimized function on

``sha256(printed input IR + "\\x00" + pass-sequence fingerprint)``

and stores the *printed optimized IR*, so a hit replays as a parse
instead of a full pipeline run.  Because the printer/parser round-trip
is exact (``print(parse(text)) == text``), warm-cache output is
byte-identical to a cold run.

Both classes here are views over :class:`repro.store.ContentStore`,
which owns the entry rules: sealed ``<key>.iloc`` / ``<key>.<level>.art``
files published atomically, torn or corrupt entries read as misses,
an LRU-bounded memory tier, and ``max_bytes`` / ``max_entries`` disk
caps for long-lived daemon workers (:mod:`repro.service.workers`) and
the fleet's gateway.  A put below its cap lists nothing; with one
writer a cap evicts the same files on the same put as pruning after
every put would, and k writers sharing a directory can pass it by up
to (k-1)/8 of it before they have all scanned at the cap
(:data:`repro.store.RESCAN_SHARE`).  The CLI bench commands default to
``.repro_cache/`` in the working directory; ``repro cache
stats|clear|prune`` manages it.

The :class:`ArtifactStore` is the fleet's shared layer
(:mod:`repro.service.fleet`): the IR text of whole compile replies,
stored per service request key and optimization ``level`` and tagged
with nothing else, so any gateway or shard can serve an artifact that
some other shard compiled, and a tiered O1 answer's request can later
be answered at O2 once the background job stores that level.
"""

from __future__ import annotations

from typing import Optional

from repro.store import ContentStore, content_key


def cache_key(ir_text: str, fingerprint: str) -> str:
    """The content address of (input function, pass sequence)."""
    return content_key(ir_text, fingerprint)


class PassCache(ContentStore):
    """In-memory (and optionally on-disk) printed-IR cache with counters.

    ``max_bytes`` caps the disk directory's total ``.iloc`` bytes and
    the in-memory tier's payload bytes; ``max_entries`` caps the entry
    count of both tiers.  Without a cap the memory tier grows without
    bound in a long-lived worker.  Either cap evicts
    least-recently-*accessed* entries first; a put below the cap lists
    nothing (:data:`repro.store.RESCAN_SHARE`).
    """

    suffix = ".iloc"

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        super().__init__(
            directory,
            max_bytes=max_bytes,
            max_entries=max_entries,
            memory_entries=max_entries,
        )

    def lookup(self, ir_text: str, fingerprint: str) -> Optional[str]:
        """The cached optimized IR, or ``None`` (counting hit/miss)."""
        return self.load(cache_key(ir_text, fingerprint))

    def store(self, ir_text: str, fingerprint: str, optimized_text: str) -> None:
        """Record the optimized form of (input, sequence)."""
        self.save(cache_key(ir_text, fingerprint), optimized_text)


class ArtifactStore(ContentStore):
    """The fleet's shared, content-addressed compile-artifact store.

    Artifacts are keyed on ``(request key, level)`` — the request key is
    the service's SHA-256 content address, so identical requests map to
    identical artifacts no matter which shard compiled them, and a
    tiered request holds *two* entries: the fast O1 answer and, once the
    background upgrade lands, the O2 text at the requested level.

    The sealed payload is the artifact text alone.  Because compilation
    is deterministic, two writers racing on the same ``(key, level)``
    write identical payloads and either winner is correct; the same
    argument makes the memory tier (LRU-bounded at ``memory_entries``)
    safe to share across requests.  An entry from before the store
    dropped its provenance line (``{"level":...}`` first) reads as a
    miss and is unlinked, like a corrupt one.
    """

    suffix = ".art"

    def __init__(
        self,
        directory: Optional[str],
        *,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        memory_entries: int = 512,
    ) -> None:
        super().__init__(
            directory,
            max_bytes=max_bytes,
            max_entries=max_entries,
            memory_entries=max(0, int(memory_entries)),
        )

    def get(self, key: str, level: str) -> Optional[str]:
        """The stored IR text for ``(key, level)``, or ``None``."""
        return self.load(f"{key}.{level}")

    def put(self, key: str, text: str, *, level: str) -> None:
        """Publish one artifact (atomic on disk, visible fleet-wide)."""
        self.save(f"{key}.{level}", text)

    def decode(self, payload: str) -> str:
        if payload.startswith('{"level":'):
            raise ValueError("an artifact in the provenance-tagged format")
        return payload
