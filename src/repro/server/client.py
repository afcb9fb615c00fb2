"""Clients for the type-query server: one synchronous, one asyncio.

Both speak the protocol of :mod:`repro.server.protocol` and expose the same
verb-per-method surface::

    from repro.server import TypeQueryClient

    with TypeQueryClient(port=8791) as client:
        result = client.analyze(asm_text)
        sig = client.query(result["program_id"], "main")["signature"]

Server-side failures surface as :class:`TypeQueryError` carrying the typed
error code, so callers can distinguish a mistyped procedure name
(``unknown_procedure``) from a saturated server (``overloaded``).

Both clients optionally retry transient failures: pass a
:class:`RetryPolicy` (``retry=RetryPolicy(attempts=5)``) and a typed
``overloaded`` reply or a refused/dropped connection is retried with
jittered exponential backoff (reconnecting first when the transport died).
Dropped connections are only retried for idempotent verbs
(:data:`repro.server.protocol.IDEMPOTENT_OPERATIONS`): a connection severed
after the server applied a ``session.edit`` must not double-apply it.
Retry is **off by default** -- a bare client fails fast, exactly as before.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from . import protocol
from .protocol import ProtocolError


class TypeQueryError(RuntimeError):
    """An error reply from the server (or a protocol violation)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServerConnectionError(TypeQueryError):
    """The transport died mid-request (server closed the connection).

    A distinct type so the retry loop can tell "reconnect and try again"
    from deterministic server errors that must not be retried.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with jittered exponential backoff.

    Only two failure shapes are retried, because only they are transient by
    construction: a typed ``overloaded`` reply (the admission gate is full
    *right now*) and a refused or dropped connection (the server is
    restarting).  Dropped connections after the request may have been
    delivered are additionally gated on verb idempotency (see
    :func:`_retryable`) -- the server may have applied the request before
    the transport died, so only verbs that are safe to apply twice are
    replayed.  Everything else -- parse errors, unknown programs,
    bad params -- is deterministic; retrying would just repeat the failure
    slower.

    ``attempts`` counts *extra* tries after the first, so the default
    ``RetryPolicy()`` with ``attempts=3`` makes at most 4 requests.  Delays
    grow as ``base_delay * multiplier**attempt`` capped at ``max_delay``,
    then take full jitter in ``[d/2, d]`` so a thundering herd of retrying
    clients decorrelates instead of re-stampeding in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.1
    max_delay: float = 2.0
    multiplier: float = 2.0

    def delay(self, attempt: int) -> float:
        bounded = min(self.max_delay, self.base_delay * (self.multiplier**attempt))
        return bounded * (0.5 + random.random() / 2)


def _retryable(op: str, exc: BaseException, sent: bool) -> bool:
    """Whether a failed request may be resent.

    A typed ``overloaded`` reply means the server refused the work before
    doing any of it -- safe to retry for every verb.  A transport failure
    after the request may have reached the server (``sent``) is retried only
    for :data:`protocol.IDEMPOTENT_OPERATIONS`: the server may already have
    applied the request before the connection died, and replaying a
    non-idempotent verb (``session.edit``) would apply it twice.  Failures
    before the request went out (refused connections during the connect
    phase) are retryable for every verb -- nothing was delivered.
    """
    if isinstance(exc, (ServerConnectionError, OSError)):
        return (not sent) or op in protocol.IDEMPOTENT_OPERATIONS
    if isinstance(exc, TypeQueryError):
        return exc.code == protocol.ErrorCode.OVERLOADED
    return False


def _needs_reconnect(exc: BaseException) -> bool:
    return isinstance(exc, (ServerConnectionError, OSError))


def _check_reply(reply: Mapping[str, object], request_id: object) -> object:
    if not isinstance(reply, dict) or "ok" not in reply:
        raise TypeQueryError(
            protocol.ErrorCode.BAD_REQUEST, f"malformed server reply: {reply!r}"
        )
    if not reply["ok"]:
        # Error replies may carry id=null (e.g. too_large, where the request
        # line never parsed); replies arrive in order, so this is ours --
        # surface the typed code, not a correlation complaint.
        error = reply.get("error") or {}
        raise TypeQueryError(
            error.get("code", protocol.ErrorCode.INTERNAL_ERROR),
            error.get("message", "unknown server error"),
        )
    if reply.get("id") != request_id:
        raise TypeQueryError(
            protocol.ErrorCode.BAD_REQUEST,
            f"reply correlation id {reply.get('id')!r} != request id {request_id!r}",
        )
    return reply.get("result")


class _VerbMixin:
    """The verb surface, expressed over an abstract ``request`` method.

    Works for both clients: on the sync client the methods return results
    directly; on the async client they return awaitables (``await
    client.analyze(...)``).
    """

    def ping(self):
        """Liveness/version check: server name, protocol version, pid."""
        return self.request("ping")

    def health(self):
        """Operational liveness: uptime, pending analyses, open sessions,
        mounted store tier (see docs/protocol.md).  Cheaper than ``stats``;
        built for pollers."""
        return self.request("health")

    def stats(self, program_id: Optional[str] = None):
        """Daemon counters, or -- given a ``program_id`` -- the per-stage
        solver timings (graph/saturate/simplify/sketch) of that analysis,
        including which executor solved it and, for a program corpus fan-out
        solved on a worker, that worker's ``SolveStats`` plus the typed
        ``worker_failed`` count (see docs/protocol.md)."""
        if program_id is None:
            return self.request("stats")
        return self.request("stats", {"program_id": program_id})

    def metrics(self, format: Optional[str] = None):
        """The server's metrics: per-verb request counters, latency
        histograms with p50/p95/p99, gate gauges, store/registry hit rates.
        ``format="prometheus"`` returns the text exposition instead of the
        structured JSON snapshot (see docs/observability.md)."""
        if format is None:
            return self.request("metrics")
        return self.request("metrics", {"format": format})

    def analyze(self, source: str, kind: str = "asm", full: bool = False):
        """Submit ``source`` (``kind``: ``"asm"`` or ``"c"``) for analysis.

        Returns the program id (a content hash -- resubmitting is a cache
        hit), procedure names and rendered signatures; ``full=True`` adds the
        whole-program payload.
        """
        return self.request(
            "analyze", {"source": source, "kind": kind, "full": full}
        )

    def query(self, program_id: str, procedure: Optional[str] = None):
        """Fetch an analyzed program, or one procedure's signature, scheme,
        formal sketches and transitively-referenced struct layouts."""
        params: Dict[str, object] = {"program_id": program_id}
        if procedure is not None:
            params["procedure"] = procedure
        return self.request("query", params)

    def corpus(self, programs: Mapping[str, object], kind: str = "asm"):
        """Submit ``{name: source}`` or ``{name: {"source":..., "kind":...}}``."""
        normalized = {
            name: entry if isinstance(entry, Mapping) else {"source": entry, "kind": kind}
            for name, entry in programs.items()
        }
        return self.request("corpus", {"programs": normalized})

    def session_open(self, source: str, kind: str = "asm"):
        """Open an incremental session on ``source``; returns ``session_id``
        plus the first analysis (later edits re-solve only their cone)."""
        return self.request("session.open", {"source": source, "kind": kind})

    def session_edit(self, session_id: str, source: str, kind: str = "asm"):
        """Re-analyze an edited version inside a session; the reply names the
        invalidation cone (``invalidated_procedures``/``solved_procedures``)."""
        return self.request(
            "session.edit", {"session_id": session_id, "source": source, "kind": kind}
        )

    def session_close(self, session_id: str):
        """Discard a session and free its server-side slot."""
        return self.request("session.close", {"session_id": session_id})

    def shutdown(self):
        """Stop the daemon (only honoured when started with --allow-shutdown)."""
        return self.request("shutdown")


class TypeQueryClient(_VerbMixin):
    """Blocking client over a plain TCP socket.

    ``connect_retries``/``connect_delay`` let scripts race a server that is
    still starting up (the CI smoke test does exactly that).  ``retry``
    additionally retries ``overloaded`` replies and dropped connections
    per-request with backoff (off when ``None``, the default).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8791,
        timeout: float = 60.0,
        connect_retries: int = 0,
        connect_delay: float = 0.2,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        self._file = None
        last_error: Optional[Exception] = None
        for attempt in range(connect_retries + 1):
            try:
                self._connect()
                break
            except OSError as exc:
                last_error = exc
                if attempt == connect_retries:
                    raise
                time.sleep(connect_delay)
        assert self._sock is not None, last_error

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, params: Optional[Mapping[str, object]] = None):
        if self._file is None and self.retry is None:
            raise TypeQueryError(protocol.ErrorCode.BAD_REQUEST, "client is closed")
        attempt = 0
        while True:
            sent = False
            try:
                if self._file is None:
                    self._connect()
                sent = True  # past here the request may have reached the server
                return self._request_once(op, params)
            except (TypeQueryError, OSError) as exc:
                if (
                    self.retry is None
                    or attempt >= self.retry.attempts
                    or not _retryable(op, exc, sent)
                ):
                    raise
                if _needs_reconnect(exc):
                    self.close()
                time.sleep(self.retry.delay(attempt))
                attempt += 1

    def _request_once(self, op: str, params: Optional[Mapping[str, object]] = None):
        assert self._file is not None
        request_id = next(self._ids)
        self._file.write(protocol.encode(protocol.make_request(op, params, request_id)))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServerConnectionError(
                protocol.ErrorCode.INTERNAL_ERROR, "server closed the connection"
            )
        try:
            reply = protocol.decode_line(line)
        except ProtocolError as exc:
            raise TypeQueryError(exc.code, exc.message)
        return _check_reply(reply, request_id)

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "TypeQueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncTypeQueryClient(_VerbMixin):
    """Asyncio client; every verb method is awaitable.

    Create with :meth:`connect`::

        client = await AsyncTypeQueryClient.connect(port=8791)
        result = await client.analyze(source)
        await client.aclose()
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._reader: Optional[asyncio.StreamReader] = reader
        self._writer: Optional[asyncio.StreamWriter] = writer
        self.retry = retry
        # Reconnect coordinates; set by connect().  A client constructed
        # straight from streams cannot reconnect, so connection failures
        # stay fatal for it even under a retry policy.
        self._endpoint: Optional[Dict[str, object]] = None
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8791,
        connect_retries: int = 0,
        connect_delay: float = 0.2,
        limit: int = protocol.MAX_LINE_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> "AsyncTypeQueryClient":
        for attempt in range(connect_retries + 1):
            try:
                reader, writer = await asyncio.open_connection(host, port, limit=limit)
                client = cls(reader, writer, retry=retry)
                client._endpoint = {"host": host, "port": port, "limit": limit}
                return client
            except OSError:
                if attempt == connect_retries:
                    raise
                await asyncio.sleep(connect_delay)
        raise AssertionError("unreachable")

    async def _reconnect(self) -> None:
        assert self._endpoint is not None
        await self.aclose()
        self._reader, self._writer = await asyncio.open_connection(
            self._endpoint["host"], self._endpoint["port"], limit=self._endpoint["limit"]
        )

    async def request(self, op: str, params: Optional[Mapping[str, object]] = None):
        attempt = 0
        while True:
            sent = False
            try:
                if self._writer is None:
                    if self._endpoint is None:
                        raise TypeQueryError(
                            protocol.ErrorCode.BAD_REQUEST, "client is closed"
                        )
                    await self._reconnect()
                sent = True  # past here the request may have reached the server
                return await self._request_once(op, params)
            except (TypeQueryError, OSError) as exc:
                reconnectable = self._endpoint is not None or not _needs_reconnect(exc)
                if (
                    self.retry is None
                    or attempt >= self.retry.attempts
                    or not _retryable(op, exc, sent)
                    or not reconnectable
                ):
                    raise
                if _needs_reconnect(exc):
                    await self.aclose()
                await asyncio.sleep(self.retry.delay(attempt))
                attempt += 1

    async def _request_once(
        self, op: str, params: Optional[Mapping[str, object]] = None
    ):
        assert self._reader is not None and self._writer is not None
        # One in-flight request per client: the protocol answers in order, so
        # interleaved writers would cross-correlate replies.
        async with self._lock:
            request_id = next(self._ids)
            self._writer.write(
                protocol.encode(protocol.make_request(op, params, request_id))
            )
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise ServerConnectionError(
                protocol.ErrorCode.INTERNAL_ERROR, "server closed the connection"
            )
        try:
            reply = protocol.decode_line(line)
        except ProtocolError as exc:
            raise TypeQueryError(exc.code, exc.message)
        return _check_reply(reply, request_id)

    async def aclose(self) -> None:
        if self._writer is None:
            return
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncTypeQueryClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
