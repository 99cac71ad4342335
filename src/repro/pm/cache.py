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
(:mod:`repro.service.fleet`): whole compile *replies* keyed on the
service request key, each tagged with the optimization ``level``, a
``generation`` counter and the ``producer`` shard — so any gateway or
shard can serve an artifact that some other shard compiled, and a
tiered O1 answer can later be upgraded in place by the O2 background
job.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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


@dataclass(frozen=True)
class Artifact:
    """One stored compile result plus its provenance tag."""

    text: str
    level: str
    generation: int
    producer: str
    tier: int


class ArtifactStore(ContentStore):
    """The fleet's shared, content-addressed compile-artifact store.

    Artifacts are keyed on ``(request key, level)`` — the request key is
    the service's SHA-256 content address, so identical requests map to
    identical artifacts no matter which shard compiled them, and a
    tiered request holds *two* entries: the fast O1 answer and, once the
    background upgrade lands, the O2 text at the requested level.

    The sealed payload is one JSON line of provenance (``level``,
    ``generation``, ``producer``, ``tier``) followed by the artifact
    text.  Because compilation is deterministic, two writers racing on
    the same ``(key, level)`` write identical payloads and either winner
    is correct; the same argument makes the memory tier (LRU-bounded at
    ``memory_entries``) safe to share across requests.
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

    def get(self, key: str, level: str) -> Optional[Artifact]:
        """The stored artifact for ``(key, level)``, or ``None``."""
        return self.load(f"{key}.{level}")

    def put(
        self,
        key: str,
        text: str,
        *,
        level: str,
        generation: int = 0,
        producer: str = "",
        tier: int = 2,
    ) -> Artifact:
        """Publish one artifact (atomic on disk, visible fleet-wide)."""
        artifact = Artifact(text, level, int(generation), producer, int(tier))
        self.save(f"{key}.{level}", artifact)
        return artifact

    def encode(self, artifact: Artifact) -> str:
        provenance = asdict(artifact)
        text = provenance.pop("text")
        return json.dumps(provenance, separators=(",", ":")) + "\n" + text

    def decode(self, payload: str) -> Artifact:
        provenance, _, text = payload.partition("\n")
        return Artifact(text=text, **json.loads(provenance))
