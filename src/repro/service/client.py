"""Blocking socket client for the analysis service.

Deliberately synchronous: callers (the ``repro client`` CLI, tests,
benchmarks, CI smoke scripts) want a plain function call that returns
the result dict or raises :class:`ServiceError`.  Heartbeat and partial
frames arriving before the terminal frame are surfaced through optional
callbacks and otherwise skipped.

    with ServiceClient(host, port) as client:
        result = client.call("analyze", {"netlist": "iscas:c432",
                                         "n_worst": 5})
        print(result["report"])

Failure taxonomy: a structured ``error`` frame raises
:class:`ServiceError` with its stable ``code``; a *transport* failure
(server died mid-stream, connection reset, timeout) raises
:class:`ServiceUnavailable` -- never a raw socket traceback -- so the
CLI maps both connect-refused and died-mid-request to
``EX_UNAVAILABLE``.  :meth:`ServiceClient.call_with_retry` layers
jittered-exponential-backoff retries over ``call`` for ``overloaded``
shedding (honoring the server's ``retry_after_s`` hint), transient
``unavailable`` refusals, and transport failures; re-sends are
idempotent because a request's identity is its parameter fingerprint
(the server memo), not its connection.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Callable, Dict, Optional

from repro.service.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    TruncatedFrame,
    FrameTooLarge,
    decode_payload,
    encode_frame,
    request_frame,
)

#: Error codes a retry can cure: shedding and drain-window refusals.
RETRYABLE_CODES = ("overloaded", "unavailable")


class ServiceError(Exception):
    """A terminal ``error`` frame from the server.

    ``retry_after_s`` carries the server's backoff hint when the frame
    had one (``overloaded`` shedding), else ``None``.
    """

    def __init__(self, code: str, message: str, request_id: Any = None,
                 retry_after_s: Optional[float] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.request_id = request_id
        self.retry_after_s = retry_after_s


class ServiceUnavailable(ServiceError):
    """The server cannot be reached or vanished mid-request (connect
    refused, reset, timeout, EOF mid-frame).  Maps to
    ``EX_UNAVAILABLE`` (69) in the CLI, exactly like connect-refused."""

    def __init__(self, message: str, request_id: Any = None):
        super().__init__("unavailable", message, request_id=request_id)


class ServiceClient:
    """One connection to a running :class:`AnalysisServer`."""

    def __init__(self, host: str, port: int, timeout: float = 600.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._ids = itertools.count(1)

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as exc:
                raise ServiceUnavailable(
                    f"cannot connect to {self.host}:{self.port}: {exc}")
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framing -----------------------------------------------------------

    def _recv_exactly(self, n: int) -> bytes:
        assert self._sock is not None
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise TruncatedFrame(
                    f"server closed the connection {n - remaining}/{n} "
                    "bytes into a frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> Dict[str, Any]:
        header = self._recv_exactly(HEADER.size)
        (length,) = HEADER.unpack(header)
        if length > self.max_frame_bytes:
            raise FrameTooLarge(
                f"server announced a {length}-byte frame beyond the "
                f"client limit {self.max_frame_bytes}")
        return decode_payload(self._recv_exactly(length))

    # -- requests ----------------------------------------------------------

    def call(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
        effort: Optional[str] = None,
        on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_partial: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Issue one request; block until its terminal frame.

        Returns the ``result`` frame as a dict; raises
        :class:`ServiceError` for an ``error`` frame and
        :class:`ServiceUnavailable` when the server vanishes
        mid-stream (the connection is closed either way).
        """
        request_id = f"r{next(self._ids)}"
        try:
            self.connect()
            assert self._sock is not None
            frame = request_frame(request_id, op, params=params,
                                  deadline_s=deadline_s, effort=effort)
            self._sock.sendall(encode_frame(frame, self.max_frame_bytes))
            while True:
                response = self._read_frame()
                kind = response.get("kind")
                if kind == "heartbeat":
                    if on_heartbeat is not None:
                        on_heartbeat(response)
                    continue
                if kind == "partial":
                    if on_partial is not None:
                        on_partial(response)
                    continue
                if kind == "error":
                    raise ServiceError(response.get("code", "internal"),
                                       response.get("message", ""),
                                       request_id=response.get("id"),
                                       retry_after_s=response.get(
                                           "retry_after_s"))
                if kind == "result":
                    return response
                raise ServiceError(
                    "internal", f"unexpected frame kind {kind!r}")
        except TruncatedFrame as exc:
            # The server died after the stream began (heartbeats may
            # already have arrived): taxonomy, not a raw traceback.
            self.close()
            raise ServiceUnavailable(
                f"server closed the connection mid-request: {exc}",
                request_id=request_id)
        except (ConnectionError, socket.timeout, TimeoutError,
                OSError) as exc:
            self.close()
            raise ServiceUnavailable(
                f"server unreachable: {exc}", request_id=request_id)

    def call_with_retry(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
        effort: Optional[str] = None,
        on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_partial: Optional[Callable[[Dict[str, Any]], None]] = None,
        retries: int = 4,
        backoff_s: float = 0.2,
        max_backoff_s: float = 10.0,
        rng: Optional[random.Random] = None,
    ) -> Dict[str, Any]:
        """:meth:`call` with jittered exponential backoff on transient
        failures: ``overloaded`` shedding (sleeping at least the
        server's ``retry_after_s`` hint), ``unavailable`` refusals, and
        transport failures (reconnecting first).  Re-sending is safe:
        the request's identity is its parameter fingerprint, so a
        repeat either replays the memo or recomputes the identical
        deterministic answer.  Other error codes raise immediately.
        """
        rng = rng if rng is not None else random.Random()
        last: Optional[ServiceError] = None
        for attempt in range(retries + 1):
            try:
                return self.call(op, params, deadline_s=deadline_s,
                                 effort=effort, on_heartbeat=on_heartbeat,
                                 on_partial=on_partial)
            except ServiceError as exc:
                if exc.code not in RETRYABLE_CODES or attempt >= retries:
                    raise
                last = exc
            delay = min(backoff_s * (2 ** attempt), max_backoff_s)
            delay *= 0.5 + rng.random()  # full jitter in [0.5x, 1.5x)
            if last.retry_after_s is not None:
                delay = max(delay, last.retry_after_s)
            time.sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises
