"""The daemon client: blocking requests, pipelining, graceful fallback.

:class:`DaemonClient` owns one socket.  ``request`` is the synchronous
path; ``send``/``wait`` split it for pipelined load generation (the
bench sends a window of requests before collecting replies).  Replies
arrive in completion order, so the client parks out-of-order frames in
a table keyed by request id.

Connecting rides out restarts: ``ECONNREFUSED``/``ENOENT`` (a daemon or
fleet shard that is restarting has either unlinked its socket or bound
it but not yet accepted) is retried ``connect_retries`` times under a
:class:`~repro.service.faults.RetryPolicy` (full jitter, 0.05 s
doubling up to 1 s), so clients ride out a shard restart instead of
failing their first request.  The same client speaks to a plain
daemon or a fleet gateway: the wire format is identical.

:func:`compile_with_fallback` is the ``repro compile --daemon`` and
``--fleet`` contract: use the server when one is listening, otherwise
answer in-process through the same request-to-reply function the
daemon's workers run — the same reply either way, so callers cannot
tell the difference except by speed.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from repro.service import protocol
from repro.service.faults import RetryPolicy

#: Errnos that mean "nobody is accepting *yet*": worth retrying when a
#: daemon/shard is restarting.  ENOENT = socket file not (re)created,
#: ECONNREFUSED = bound but the listener is gone or not accepting.
_RETRYABLE_CONNECT = (ConnectionRefusedError, FileNotFoundError)


class DaemonError(Exception):
    """A structured error reply (``kind`` mirrors the protocol)."""

    def __init__(self, error: dict) -> None:
        super().__init__(error.get("message", "daemon error"))
        self.kind = error.get("kind", "error")


class DaemonClient:
    """One connection to a compile daemon or fleet gateway."""

    def __init__(
        self,
        path: str,
        timeout: Optional[float] = 60.0,
        *,
        connect_retries: int = 0,
    ) -> None:
        self.path = path
        self._sock = self._connect(path, timeout, connect_retries)
        self._lines = protocol.read_lines(self._sock)
        self._parked: dict[int, dict] = {}
        self._lock = threading.Lock()
        self._next_id = 0

    @staticmethod
    def _connect(
        path: str, timeout: Optional[float], retries: int
    ) -> socket.socket:
        """Connect with bounded exponential backoff on refused/missing."""
        # full jitter spreads a herd of clients reconnecting after one
        # shard restart instead of re-arriving in lockstep
        policy = RetryPolicy(max_attempts=max(0, retries) + 1)
        attempt = 1
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(path)
                return sock
            except _RETRYABLE_CONNECT:
                sock.close()
                if attempt >= policy.max_attempts:
                    raise
                time.sleep(policy.delay(attempt))
                attempt += 1
            except BaseException:
                sock.close()
                raise

    # -- plumbing ----------------------------------------------------------------

    def send(self, message: dict) -> int:
        """Fire one request; returns the id to :meth:`wait` on."""
        with self._lock:
            self._next_id += 1
            rid = self._next_id
        self._sock.sendall(protocol.encode({**message, "id": rid}))
        return rid

    def wait(self, rid: int) -> dict:
        """Block until the reply for ``rid`` arrives (parking others)."""
        while True:
            reply = self._parked.pop(rid, None)
            if reply is not None:
                return reply
            try:
                message = protocol.decode(next(self._lines))
            except StopIteration:
                raise ConnectionError("daemon closed the connection") from None
            got = message.get("id")
            if got == rid:
                return message
            if got is not None:
                self._parked[got] = message

    def request(self, message: dict) -> dict:
        return self.wait(self.send(message))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations --------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def compile(
        self,
        kind: str,
        text: str,
        level: str = "distribution",
        verify: str = "final",
        *,
        fault: Optional[dict] = None,
        tenant: str = protocol.DEFAULT_TENANT,
        priority: str = "interactive",
        no_store: bool = False,
        on_error: str = "degrade",
    ) -> dict:
        """One compile round-trip; raises :class:`DaemonError` on failure."""
        reply = self.request(
            protocol.compile_request(
                kind,
                text,
                level,
                verify,
                fault=fault,
                tenant=tenant,
                priority=priority,
                no_store=no_store,
                on_error=on_error,
            )
        )
        if not reply.get("ok"):
            raise DaemonError(reply.get("error", {}))
        return reply

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})


def try_connect(
    path: Optional[str] = None,
    timeout: float = 5.0,
    *,
    connect_retries: int = 0,
) -> Optional[DaemonClient]:
    """A connected client, or ``None`` when no daemon is listening."""
    path = path if path is not None else protocol.default_socket_path()
    try:
        return DaemonClient(path, timeout=timeout,
                            connect_retries=connect_retries)
    except OSError:
        return None


def compile_with_fallback(
    request: dict,
    socket_path: Optional[str] = None,
    *,
    connect_retries: int = 0,
) -> tuple[dict, str]:
    """Send ``request`` to the server on ``socket_path``, or answer it
    in-process when none is listening.

    Returns ``(reply, "daemon" | "local")``; an error is a reply with
    ``ok: false``, never an exception.  The local answer comes from
    :func:`repro.triage.containment.compile_reply`, the function the
    daemon's workers call, so both origins give the same reply to the
    same request — the second element is purely informational.  A fleet
    gateway may answer a tiered first reply at its O1 level (the
    reply's ``tier`` and ``level`` say so).
    """
    client = try_connect(socket_path, connect_retries=connect_retries)
    if client is not None:
        with client:
            return client.request(request), "daemon"
    from repro.triage.containment import compile_reply

    try:
        request = protocol.validate_compile(request)
    except protocol.ProtocolError as error:
        return {"ok": False, "error": error.as_error()}, "local"
    return compile_reply(request), "local"
