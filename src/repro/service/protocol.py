"""The wire protocol: line-delimited JSON over a Unix domain socket.

Each message is one JSON object on one line (``json.dumps`` escapes
embedded newlines, so framing is a plain ``\\n`` split).  Clients send
requests carrying a caller-chosen ``id``; the daemon echoes the ``id``
on the reply, and replies may arrive out of order (the scheduler
batches and shards), so clients match on ``id``, never on position.

Both servers, the daemon and the fleet gateway, frame alike: a line
that is not a JSON object gets a ``bad-request`` reply with ``id``
``null`` and the connection reads on; a line longer than
:data:`MAX_LINE` bytes closes the connection.

Request operations:

``compile``
    ``{"id": 1, "op": "compile", "source": "..."}`` or ``{"ir": "..."}``
    plus optional ``level`` (any registered sequence name — a Table 1
    level, ``spec``, ``extended``, ... — or ``"none"``; default
    ``"distribution"``), ``verify`` (any
    :func:`repro.pm.manager.parse_verify` spec; default ``"final"``)
    and ``fault`` (test-only injection, see
    :mod:`repro.service.faults`).  Reply: ``{"id": 1, "ok": true,
    "ir": "...", "attempts": 1, "deduped": false}`` or ``{"ok": false,
    "error": {"kind": ..., "message": ...}}`` with ``kind`` one of
    ``bad-request``, ``compile-error``, ``injected-error``,
    ``worker-crash``, ``timeout``, ``overloaded``.

``stats``
    Reply carries the :class:`~repro.service.metrics.Metrics` snapshot
    (schema in ``docs/SERVICE.md``).

``ping`` / ``shutdown``
    Liveness probe / graceful stop (the daemon replies, then drains).

The **request key** is the content address used for in-flight dedup and
worker sharding: the SHA-256 of ``(kind, level, verify, payload
text)``.  The injected ``fault`` is deliberately *excluded* — it is
test machinery, not compile input, and excluding it lets the tests
dedupe a clean request against a hung twin.  ``on_error`` (the
containment policy, see :mod:`repro.triage`) is excluded for the same
reason: it is execution policy, and a degraded reply already carries
its achieved level explicitly.

The fleet gateway (:mod:`repro.service.fleet`) speaks the same wire
format with three additions: requests may carry ``tenant`` (quota
accounting identity, default ``"default"``) and ``priority``
(``"interactive"`` or ``"batch"``); compile replies carry ``tier``
(``1`` = fast first answer, ``2`` = the requested level) plus the
``level`` actually compiled and ``served_from`` (``"store"`` or
``"shard"``).  ``tenant`` and ``priority`` are excluded from the
request key for the same reason ``fault`` is: artifacts are
content-addressed, and the same program compiled for two tenants is
the same artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import socket
import tempfile
from typing import Iterator, Optional

from repro.pm.manager import ON_ERROR_POLICIES, parse_verify
from repro.pm.registry import sequence_names

#: Error kinds a daemon (or gateway) reply may carry.
ERROR_KINDS = (
    "bad-request",
    "compile-error",
    "injected-error",
    "worker-crash",
    "timeout",
    "overloaded",
    "quota-exceeded",
    "shard-unavailable",
)

#: Request operations the daemon understands.
OPERATIONS = ("compile", "stats", "ping", "shutdown")

#: Gateway priority classes: interactive requests may briefly wait for
#: quota tokens and ride out shard backpressure; batch requests are
#: shed immediately in both cases.
PRIORITIES = ("interactive", "batch")

#: The tenant requests are accounted to when they do not name one.
DEFAULT_TENANT = "default"

#: The longest line any reader accepts (big fuzz-CFG modules fit).
MAX_LINE = 2**24


class ProtocolError(Exception):
    """A malformed or unsupported message (replied as ``bad-request``)."""

    def __init__(self, message: str, kind: str = "bad-request") -> None:
        super().__init__(message)
        self.kind = kind

    def as_error(self) -> dict:
        return {"kind": self.kind, "message": str(self)}


def default_socket_path(server: str = "daemon") -> str:
    """The conventional socket of a ``"daemon"`` or a ``"fleet"``
    gateway: ``$REPRO_DAEMON_SOCKET`` / ``$REPRO_FLEET_SOCKET``, or a
    per-user path under ``$XDG_RUNTIME_DIR`` (fallback: the tempdir)."""
    override = os.environ.get(f"REPRO_{server.upper()}_SOCKET")
    if override:
        return override
    runtime = os.environ.get("XDG_RUNTIME_DIR") or tempfile.gettempdir()
    uid = getattr(os, "getuid", lambda: "user")()
    return os.path.join(runtime, f"repro-{server}-{uid}.sock")


def listening(path: str, timeout: float = 0.25) -> bool:
    """Whether a server accepts connections on the socket at ``path``."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.settimeout(timeout)
        try:
            probe.connect(path)
        except OSError:
            return False
    return True


def claim_socket(path: str) -> None:
    """Unlink a stale socket file at ``path``; refuse to evict a live
    daemon or gateway (``RuntimeError``)."""
    if listening(path):
        raise RuntimeError(f"a server is already listening on {path}")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)  # nobody home: stale leftover


def encode(message: dict) -> bytes:
    """One message, framed: compact JSON plus the ``\\n`` terminator."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one framed line back into a message."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"malformed JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def read_lines(sock: socket.socket) -> Iterator[bytes]:
    """Yield the non-blank lines read from ``sock`` until the peer
    closes, or until a line grows past :data:`MAX_LINE` bytes."""
    buffer = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return
        *lines, buffer = (buffer + chunk).split(b"\n")
        for line in lines:
            if len(line) > MAX_LINE:
                return
            if line.strip():
                yield line
        if len(buffer) > MAX_LINE:
            return


def request_key(kind: str, text: str, level: str, verify: str) -> str:
    """The content address of one compile request (dedup + sharding)."""
    digest = hashlib.sha256()
    for part in (kind, level, verify):
        digest.update(part.encode())
        digest.update(b"\x00")
    digest.update(text.encode())
    return digest.hexdigest()


def compile_request(
    kind: str,
    text: str,
    level: str = "distribution",
    verify: str = "final",
    *,
    fault: Optional[dict] = None,
    tenant: str = DEFAULT_TENANT,
    priority: str = "interactive",
    no_store: bool = False,
    on_error: str = "degrade",
) -> dict:
    """Build a normalized internal compile job (also the client payload).

    ``tenant``/``priority`` drive gateway quotas; ``no_store`` bypasses
    the artifact store and tiering (a bench/test knob forcing the
    request down the shard compile path); ``on_error`` picks the
    containment policy for optimization failures (``"degrade"`` walks
    the ladder, ``"rollback"`` skips broken passes, ``"raise"`` restores
    the legacy fail-hard behavior — see :mod:`repro.triage`).  All four
    are execution policy, not compile input, and are excluded from the
    request key.
    """
    return {
        "op": "compile",
        "kind": kind,
        "text": text,
        "level": level,
        "verify": verify,
        "fault": fault,
        "tenant": tenant,
        "priority": priority,
        "no_store": no_store,
        "on_error": on_error,
    }


def validate_compile(message: dict) -> dict:
    """Normalize and validate a wire-format compile request.

    Accepts either the wire shape (``source``/``ir`` payload fields) or
    the already-normalized shape (``kind`` + ``text``).  Raises
    :class:`ProtocolError` on anything the worker could not execute, so
    bad requests are shed at the front door rather than poisoning a
    batch.
    """
    if "kind" in message:
        kind, text = message.get("kind"), message.get("text")
    elif "source" in message:
        kind, text = "source", message.get("source")
    elif "ir" in message:
        kind, text = "ir", message.get("ir")
    else:
        raise ProtocolError("compile request needs a 'source' or 'ir' payload")
    if kind not in ("source", "ir"):
        raise ProtocolError(f"unknown payload kind {kind!r}")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError(f"{kind} payload must be a non-empty string")
    level = message.get("level", "distribution")
    if level != "none" and level not in sequence_names():
        raise ProtocolError(
            f"unknown level {level!r}; expected 'none' or one of "
            f"{sequence_names()}"
        )
    verify = message.get("verify", "final")
    try:
        parse_verify(verify)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    fault = message.get("fault")
    if fault is not None and not isinstance(fault, dict):
        raise ProtocolError("fault injection spec must be an object")
    tenant = message.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant.strip():
        raise ProtocolError("tenant must be a non-empty string")
    priority = message.get("priority", "interactive")
    if priority not in PRIORITIES:
        raise ProtocolError(
            f"unknown priority {priority!r}; expected one of {list(PRIORITIES)}"
        )
    on_error = message.get("on_error", "degrade")
    if on_error not in ON_ERROR_POLICIES:
        raise ProtocolError(
            f"unknown on_error policy {on_error!r}; "
            f"expected one of {list(ON_ERROR_POLICIES)}"
        )
    return compile_request(
        kind,
        text,
        level,
        verify,
        fault=fault,
        tenant=tenant.strip(),
        priority=priority,
        no_store=bool(message.get("no_store", False)),
        on_error=on_error,
    )
