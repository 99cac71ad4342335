"""Content-addressed, versioned profile store.

A view over :class:`repro.store.ContentStore`, which owns the entry
rules (sealed files, atomic publish, corrupt entries read as misses and
are unlinked).  Entries are addressed by ``sha256(function \\x00
source_hash)`` and carry a format version, so stale layouts read as
misses, never as crashes.  A store without a directory is purely
in-memory — handy for tests and for benchmark runs that must not leak
state between invocations.

Staleness is the whole point of the addressing scheme: a consumer asks
for ``(function, hash-of-the-body-it-holds)``; if collection happened
against a different body the key simply does not exist and the lookup
returns ``None``, pushing the consumer onto the static-estimate path.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Iterator, Optional

from repro.profile.model import FunctionProfile
from repro.store import ContentStore, content_key

#: Default on-disk location, overridable via ``REPRO_PROFILE_DIR``.
DEFAULT_PROFILE_DIR = ".repro_profiles"


def profile_key(function: str, source_hash: str) -> str:
    """The content address of one ``(function, body hash)`` pair."""
    return content_key(function, source_hash)[:40]


class ProfileStore(ContentStore):
    """Two-tier (memory + optional directory) profile store."""

    suffix = ".prof.json"

    def __init__(self, directory: Optional[str] = None):
        super().__init__(directory)

    def put(self, profile: FunctionProfile, *, merge: bool = True) -> FunctionProfile:
        """Store ``profile``, summing into any existing entry by default.

        Returns the stored (possibly merged) profile.
        """
        key = profile_key(profile.function, profile.source_hash)
        existing = self._fetch(key) if merge else None
        if existing is not None:
            profile = existing.merge(profile)
        self.save(key, profile)
        return profile

    def get(self, function: str, source_hash: str) -> Optional[FunctionProfile]:
        """The profile for this exact body, or ``None`` (miss / stale)."""
        return self.load(profile_key(function, source_hash))

    def entries(self) -> list[FunctionProfile]:
        """Every readable profile in the store, sorted by function name."""
        found = [p for p in map(self._fetch, self.keys()) if p is not None]
        return sorted(found, key=lambda p: (p.function, p.source_hash))

    def encode(self, profile: FunctionProfile) -> str:
        return json.dumps(profile.to_json(), indent=1, sort_keys=True)

    def decode(self, payload: str) -> FunctionProfile:
        return FunctionProfile.from_json(json.loads(payload))


_DEFAULT: Optional[ProfileStore] = None
_OVERRIDE: list[Optional[ProfileStore]] = []


def default_store() -> ProfileStore:
    """The process-wide store consumers fall back to.

    Honors ``REPRO_PROFILE_DIR`` (set it empty for an in-memory store);
    otherwise persists under :data:`DEFAULT_PROFILE_DIR` in the working
    directory.  :func:`set_default_store` overrides it for a scope.
    """
    global _DEFAULT
    if _OVERRIDE:
        override = _OVERRIDE[-1]
        if override is not None:
            return override
    if _DEFAULT is None:
        directory = os.environ.get("REPRO_PROFILE_DIR", DEFAULT_PROFILE_DIR)
        _DEFAULT = ProfileStore(directory or None)
    return _DEFAULT


@contextlib.contextmanager
def set_default_store(store: Optional[ProfileStore]) -> Iterator[None]:
    """Scope-local override of :func:`default_store` (re-entrant)."""
    _OVERRIDE.append(store)
    try:
        yield
    finally:
        _OVERRIDE.pop()
