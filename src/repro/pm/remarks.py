"""Structured optimization remarks (LLVM ``-fsave-optimization-record`` style).

Passes report *what they did* — PRE insertions/deletions, reassociation
rewrites, GVN congruence classes — through :func:`emit`, which is a
no-op unless the surrounding :class:`repro.pm.manager.PassManager`
installed a :class:`RemarkCollector` for the current (pass, function)
via :func:`remark_context`.  Passes therefore never need to know
whether anyone is listening, and running them outside the manager (the
seed's direct-call style) costs one thread-local lookup.

The JSONL schema, one object per line:

``{"pass": str, "function": str, "event": str, ...counts}``

where every extra key is a pass-specific scalar (int/float/str).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Optional

#: Keys every remark carries; everything else is pass-specific payload.
REQUIRED_KEYS = ("pass", "function", "event")


@dataclass
class Remark:
    """One structured remark."""

    pass_name: str
    function: str
    event: str
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "function": self.function,
            "event": self.event,
            **self.data,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Remark":
        payload = {
            key: value for key, value in record.items() if key not in REQUIRED_KEYS
        }
        return cls(record["pass"], record["function"], record["event"], payload)


class RemarkCollector:
    """Accumulates remarks; writes them as JSON Lines."""

    def __init__(self) -> None:
        self.remarks: list[Remark] = []

    def add(self, remark: Remark) -> None:
        self.remarks.append(remark)

    def __len__(self) -> int:
        return len(self.remarks)

    def dump(self, stream: IO[str]) -> None:
        for remark in self.remarks:
            stream.write(json.dumps(remark.as_dict(), sort_keys=False))
            stream.write("\n")

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            self.dump(handle)


def load_jsonl(path: str) -> list[Remark]:
    """Read a remarks file back (tests, tooling)."""
    remarks = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                remarks.append(Remark.from_dict(json.loads(line)))
    return remarks


class _Context(threading.local):
    def __init__(self) -> None:
        self.stack: list[tuple[RemarkCollector, str, str]] = []


_context = _Context()


@contextmanager
def remark_context(
    collector: Optional[RemarkCollector], pass_name: str, function: str
):
    """Route :func:`emit` calls to ``collector`` tagged (pass, function).

    A ``None`` collector still pushes a frame so nested contexts behave
    uniformly; emission stays a no-op.
    """
    _context.stack.append((collector, pass_name, function))
    try:
        yield collector
    finally:
        _context.stack.pop()


def emit(event: str, **data) -> None:
    """Record a remark for the active (pass, function), if any.

    Called from inside passes; silently does nothing when no manager
    context is active, so passes stay usable as plain functions.
    """
    if not _context.stack:
        return
    collector, pass_name, function = _context.stack[-1]
    if collector is None:
        return
    collector.add(Remark(pass_name, function, event, dict(data)))
