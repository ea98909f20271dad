"""Clients for the allocation server: raw and resilient.

:class:`ServeClient` is one TCP connection speaking strict
request/response — send a line, read lines until the matching id comes
back.  It is now **thread-safe**: an internal lock serializes whole
round-trips, so the load generator and multi-threaded harnesses can
share one client instead of opening a connection per thread.

:class:`ResilientClient` is the fault-tolerant wrapper: it owns an
*address* rather than a connection, reconnects on broken pipes, lost
or garbled replies and a restarted server, retries retryable errors
(``overload`` / ``draining`` — see
:data:`~repro.serve.protocol.RETRYABLE_KINDS`) and transport failures
with jittered exponential backoff (honouring server ``retry_after``
hints), and propagates an end-to-end deadline in the v2 envelope so
the server can drop work that has already expired.  When its
transport retries run out it raises :class:`RetriesExhausted` with
the kind ``unavailable``.  Retrying is safe because allocation
requests are idempotent: content-hashed, cached, and deterministic.
Connections are per-thread, so concurrent callers don't serialize
behind one socket.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any

from . import protocol


class ServeError(RuntimeError):
    """A typed error reply (``ok: false``) from the server."""

    def __init__(self, error: dict):
        super().__init__(f"{error.get('kind')}: {error.get('message')}")
        self.error = error

    @property
    def kind(self) -> str:
        return self.error.get("kind", "internal")

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request can succeed: ``overload``,
        ``draining`` and ``unavailable`` are transient conditions of
        *this moment*; ``bad_request``, ``failed``, ``expired`` and
        ``internal`` are definitive answers."""
        return self.kind in protocol.RETRYABLE_KINDS

    @property
    def retry_after(self) -> float | None:
        """The server's back-off hint in seconds, if it gave one."""
        value = self.error.get("retry_after")
        return float(value) if isinstance(value, (int, float)) else None


class ServeClient:
    """Blocking JSONL client; usable as a context manager.

    Thread-safe: a lock serializes each round-trip, so threads sharing
    one client interleave whole request/response pairs, never bytes.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0,
                 client_id: str | None = None):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rwb")
        self.client_id = client_id
        self._next_id = 0
        self._lock = threading.RLock()

    # -- plumbing --------------------------------------------------------------

    def call_raw(self, op: str, request: dict | None = None,
                 deadline_s: float | None = None) -> dict:
        """One round-trip; returns the whole response object."""
        with self._lock:
            self._next_id += 1
            request_id = f"c{self._next_id}"
            envelope: dict[str, Any] = {"v": protocol.PROTOCOL_VERSION,
                                        "id": request_id, "op": op}
            if request is not None:
                envelope["request"] = request
            if self.client_id is not None:
                envelope["client"] = self.client_id
            if deadline_s is not None:
                envelope["deadline_s"] = round(deadline_s, 4)
            self.file.write(protocol.encode_line(envelope))
            self.file.flush()
            while True:
                line = self.file.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                response = protocol.decode_line(line)
                if response.get("id") == request_id:
                    return response

    def call(self, op: str, request: dict | None = None,
             deadline_s: float | None = None) -> Any:
        """One round-trip; returns ``result`` or raises
        :class:`ServeError`."""
        response = self.call_raw(op, request, deadline_s=deadline_s)
        if not response.get("ok"):
            raise ServeError(response.get("error") or {})
        return response.get("result")

    # -- operations ------------------------------------------------------------

    def allocate(self, **request_fields) -> dict:
        """Run one allocation experiment; returns the summary JSON."""
        return self.call("allocate", request_fields)

    def trace(self, **request_fields) -> str:
        """Record one allocation trace; returns the JSONL text."""
        return self.call("trace", request_fields)["trace_text"]

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def metrics(self) -> dict:
        return self.call("metrics")

    def debug(self) -> dict:
        """The flight recorder's dump: slowest + failed request traces."""
        return self.call("debug")

    def shutdown(self) -> None:
        """Ask the server to drain and exit."""
        self.call("shutdown")

    def close(self) -> None:
        try:
            self.file.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: transport-level failures the resilient client reconnects after
TRANSPORT_ERRORS = (ConnectionError, BrokenPipeError, OSError,
                    protocol.ProtocolError, EOFError)


class RetriesExhausted(ServeError):
    """The resilient client gave up; carries the last typed error."""


class ResilientClient:
    """A reconnecting, retrying, deadline-propagating client.

    Owns an address, not a socket.  Each thread gets its own underlying
    :class:`ServeClient` (lazily dialled, transparently re-dialled
    after transport failures), so threads sharing one resilient client
    never serialize behind a single connection.

    Retry policy: transport errors and retryable typed errors
    (``overload`` / ``draining`` / ``unavailable``) back off
    ``backoff * 2**attempt`` seconds with ±50% jitter, capped at
    *backoff_cap* and raised to any server ``retry_after`` hint, up to
    *max_retries* retries — then :class:`RetriesExhausted` carries the
    last error.  Non-retryable typed errors raise immediately.

    Deadline: a per-call (or constructor-default) *deadline* is an
    end-to-end budget in seconds.  The remaining budget rides the v2
    envelope (``deadline_s``) so servers can drop expired work, shrinks
    across retries, and bounds the backoff sleeps; once spent, the
    client raises a local ``expired`` :class:`ServeError` rather than
    sending dead requests.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 120.0,
                 client_id: str | None = None, max_retries: int = 8,
                 backoff: float = 0.02, backoff_cap: float = 1.0,
                 deadline: float | None = None,
                 rng: random.Random | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self._rng = rng or random.Random()
        self._rng_lock = threading.Lock()
        self._local = threading.local()
        #: every thread's open connection, so :meth:`close` reaches all
        self._open: set[ServeClient] = set()
        self._open_lock = threading.Lock()
        #: transport reconnects + retryable-error retries, lifetime
        self.retries = 0
        self.reconnects = 0
        self._stats_lock = threading.Lock()

    # -- connection management -------------------------------------------------

    def _connection(self) -> ServeClient:
        client = getattr(self._local, "client", None)
        # never dialled on this thread, or closed since by close()
        if client not in self._open:
            client = ServeClient(self.host, self.port,
                                 timeout=self.timeout,
                                 client_id=self.client_id)
            self._local.client = client
            with self._open_lock:
                self._open.add(client)
        return client

    def _discard_connection(self) -> None:
        client = getattr(self._local, "client", None)
        if client is not None:
            with self._open_lock:
                self._open.discard(client)
            client.close()
            self._local.client = None
            with self._stats_lock:
                self.reconnects += 1

    def _sleep_for(self, attempt: int, hint: float | None) -> float:
        with self._rng_lock:
            jitter = 0.5 + self._rng.random()
        delay = min(self.backoff_cap, self.backoff * (2 ** attempt)) \
            * jitter
        if hint is not None:
            delay = max(delay, hint)
        return delay

    # -- calls -----------------------------------------------------------------

    def call(self, op: str, request: dict | None = None,
             deadline: float | None = None) -> Any:
        budget = deadline if deadline is not None else self.deadline
        expires = time.monotonic() + budget if budget is not None else None
        last_error: dict = {"kind": "unavailable",
                            "message": "no attempt made"}
        for attempt in range(self.max_retries + 1):
            remaining = None
            if expires is not None:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    raise ServeError({"kind": "expired",
                                      "message": "deadline spent "
                                                 "client-side"})
            try:
                client = self._connection()
                return client.call(op, request, deadline_s=remaining)
            except ServeError as exc:
                if not exc.retryable:
                    raise
                last_error = exc.error
                hint = exc.retry_after
            except TRANSPORT_ERRORS as exc:
                self._discard_connection()
                last_error = {"kind": "unavailable",
                              "message": f"transport: "
                                         f"{type(exc).__name__}: {exc}"}
                hint = None
            if attempt >= self.max_retries:
                break
            with self._stats_lock:
                self.retries += 1
            delay = self._sleep_for(attempt, hint)
            if expires is not None:
                delay = min(delay, max(0.0, expires - time.monotonic()))
            if delay > 0:
                time.sleep(delay)
        raise RetriesExhausted(last_error)

    def allocate(self, **request_fields) -> dict:
        return self.call("allocate", request_fields)

    def trace(self, **request_fields) -> str:
        return self.call("trace", request_fields)["trace_text"]

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def metrics(self) -> dict:
        return self.call("metrics")

    def debug(self) -> dict:
        return self.call("debug")

    def close(self) -> None:
        """Close every thread's connection.  A thread that calls again
        afterwards finds its connection closed and re-dials."""
        with self._open_lock:
            clients, self._open = self._open, set()
        for client in clients:
            client.close()
        self._local.client = None

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
