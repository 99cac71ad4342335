"""The content-addressed incident store.

One incident is one contained pass failure: the exact function IR that
went into the pipeline, the pass sequence, which application failed and
how (exception type or verification diagnostics), plus an optional
chaos descriptor so injected failures replay deterministically.  The
record is everything :mod:`repro.triage.bisect` and
:mod:`repro.triage.reduce` need to reproduce the failure offline.

:class:`IncidentStore` is a view over :class:`repro.store.ContentStore`,
which owns the entry rules (sealed files, atomic publish, torn or
edited entries read as misses and are unlinked, a failed disk write
never raises).  Entries are addressed by a SHA-256 of their
reproducer-relevant fields, so the same bug hitting the same function a
thousand times under load is *one* incident with a bumped ``count``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.store import ContentStore

#: Default on-disk location of ``repro serve`` and ``repro triage``.
DEFAULT_INCIDENT_DIR = ".repro_incidents"

#: Bumped on any layout change; mismatched entries read as misses.
FORMAT_VERSION = 1


@dataclass
class Incident:
    """One contained failure, with everything needed to replay it."""

    function: str
    input_ir: str  #: printed function IR at pipeline entry (the reproducer)
    specs: list  #: normalized ``(pass, options)`` specs, JSON shape
    verify: str
    pass_label: str
    pass_index: int
    application: int  #: 1-based opt-bisect application number in this run
    error_kind: str  #: ``"exception"`` | ``"verification"``
    error_type: str  #: exception class name (the oracle identity)
    message: str = ""
    sequence: Optional[str] = None
    diagnostics: list = field(default_factory=list)
    chaos: Optional[dict] = None  #: injection descriptor for replay
    context: dict = field(default_factory=dict)  #: level, seed, rung, ...
    count: int = 1
    reduced: Optional[dict] = None  #: filled in by ``repro triage reduce``
    version: int = FORMAT_VERSION

    @property
    def incident_id(self) -> str:
        """The content address: same bug, same id, however often it fires."""
        digest = hashlib.sha256()
        for part in (
            self.function,
            self.input_ir,
            json.dumps(self.specs, sort_keys=True),
            self.verify,
            self.pass_label,
            self.error_type,
            json.dumps(self.chaos, sort_keys=True),
        ):
            digest.update(str(part).encode())
            digest.update(b"\x00")
        return digest.hexdigest()[:16]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "Incident":
        if int(payload.get("version", -1)) != FORMAT_VERSION:
            raise ValueError(f"unknown incident format {payload.get('version')!r}")
        fields = {name: payload[name] for name in (
            "function", "input_ir", "specs", "verify", "pass_label",
            "pass_index", "application", "error_kind", "error_type",
        )}
        return cls(
            **fields,
            message=payload.get("message", ""),
            sequence=payload.get("sequence"),
            diagnostics=payload.get("diagnostics", []),
            chaos=payload.get("chaos"),
            context=payload.get("context", {}),
            count=int(payload.get("count", 1)),
            reduced=payload.get("reduced"),
        )

    def summary(self) -> dict:
        """The ``repro triage list`` row."""
        return {
            "id": self.incident_id,
            "function": self.function,
            "pass": self.pass_label,
            "application": self.application,
            "error": self.error_type,
            "count": self.count,
            "level": self.context.get("level"),
            "reduced": self.reduced is not None,
        }


class IncidentStore(ContentStore):
    """Two-tier (memory + optional directory) incident store."""

    suffix = ".inc.json"

    def __init__(self, directory: Optional[str] = None):
        super().__init__(directory)
        self.recorded = 0
        self.deduped = 0

    def record(self, payload) -> str:
        """Persist one incident (dict or :class:`Incident`); returns its id.

        A repeat of an already-recorded incident bumps ``count`` in
        place instead of writing a sibling — the store holds *bugs*,
        not occurrences.
        """
        incident = (
            payload if isinstance(payload, Incident)
            else Incident.from_json({**payload, "version": FORMAT_VERSION})
        )
        incident_id = incident.incident_id
        existing = self.get(incident_id)
        if existing is not None:
            existing.count += incident.count
            incident = existing
            self.deduped += 1
        else:
            self.recorded += 1
        self.save(incident_id, incident)
        return incident_id

    def update(self, incident_id: str, **fields) -> Optional[Incident]:
        """Merge ``fields`` into a stored incident (e.g. ``reduced=...``)."""
        incident = self.get(incident_id)
        if incident is None:
            return None
        for name, value in fields.items():
            setattr(incident, name, value)
        self.save(incident_id, incident)
        return incident

    def get(self, incident_id: str) -> Optional[Incident]:
        return self.load(incident_id)

    def entries(self) -> list[Incident]:
        """Every readable incident, sorted by function, pass and id."""
        found = [inc for inc in map(self._fetch, self.keys()) if inc is not None]
        return sorted(
            found,
            key=lambda inc: (inc.function, inc.pass_label, inc.incident_id),
        )

    def clear(self) -> None:
        super().clear()
        self.recorded = 0
        self.deduped = 0

    def encode(self, incident: Incident) -> str:
        return json.dumps(incident.to_json(), indent=1, sort_keys=True)

    def decode(self, payload: str) -> Incident:
        return Incident.from_json(json.loads(payload))
