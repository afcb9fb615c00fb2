"""The type-query daemon: an asyncio front door over the analysis service.

One process hosts one :class:`~repro.service.AnalysisService` (and therefore
one shared summary store, optionally disk-backed) plus one
:class:`~repro.server.registry.ProgramRegistry` of finished analyses.  Many
clients connect over TCP and speak the newline-delimited JSON protocol of
:mod:`repro.server.protocol`:

``analyze``
    submit assembly text or mini-C source; the program is analyzed (or served
    straight from the registry when the content hash is known) and its id
    returned for later queries.
``query``
    look up an analyzed program: the whole-program payload (encoded once per
    registry entry, then served as bytes), or one procedure's signature /
    type scheme / formal sketches / struct layout.
``corpus``
    submit a batch of programs routed through :func:`repro.analyze_corpus`
    against the shared store, so cluster members reuse each other's SCC
    summaries; every member becomes queryable.
``session.open`` / ``session.edit`` / ``session.close``
    drive an :class:`~repro.service.IncrementalSession` over the wire: an edit
    re-solves only the invalidation cone and reports it.

Concurrency model: the event loop only parses, dispatches and serializes.
All solving runs on a thread pool, admission to which is bounded by a global
gate (``max_concurrency`` running, at most ``max_pending`` queued).  Admission
control is queue-depth aware: beyond the static cap, the gate sheds with a
typed ``overloaded`` error whenever the *estimated* queue wait (queue depth
times a service-time EWMA, floored by the age of the oldest running job)
exceeds ``max_queue_wait_seconds`` -- so under overload a request is refused
immediately instead of queueing toward an unbounded p99.  Identical
concurrent ``analyze`` submissions are single-flight coalesced: one leader
solves, followers share its result (``server_coalesced_total``).  Per
connection, requests are handled strictly in order and each response is
drained before the next request is read, so one slow client gets
backpressure instead of an unbounded output buffer.

Observability: every count lives with the object that owns its event.  The
server keeps its own per-verb request, error, shed and latency counters; the
``metrics`` verb reads those, the program registry, the summary store, the
process pool and the service's lifetime ``SolveStats`` into metric rows when
it is called (:meth:`TypeQueryServer._metric_rows`), so its numbers are this
server's alone and agree with the ``stats`` verb by construction.  The
counters change only on the event-loop thread and need no lock.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import itertools
import logging
import os
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..ir.asmparser import AsmSyntaxError, parse_program
from ..obs.metrics import Histogram, Row
from ..obs.trace import get_tracer
from ..service.incremental import AnalysisService, IncrementalSession, ServiceConfig
from ..service.store import environment_fingerprint
from . import protocol
from .protocol import ErrorCode, ProtocolError
from .registry import ProgramRegistry

logger = logging.getLogger("repro.server")

#: the current request's root-span context, carried from the event loop to
#: executor threads.  A contextvar (not a thread-local stack): interleaved
#: coroutines share the loop thread, so stack discipline cannot hold there.
_REQUEST_SPAN: "contextvars.ContextVar[Optional[Dict[str, object]]]" = contextvars.ContextVar(
    "repro_request_span", default=None
)


@dataclass
class ServerConfig:
    """Everything tunable about one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 8791
    #: directory for the summary store's persistent disk tier (None = memory only).
    store_dir: Optional[str] = None
    #: in-memory LRU capacity of the summary store.
    cache_capacity: int = 4096
    #: how many analyzed programs the registry keeps hot.
    registry_capacity: int = 128
    #: analyses running at once (thread-pool width and gate size).
    max_concurrency: int = 4
    #: analyses allowed to queue on the gate before ``overloaded`` replies.
    max_pending: int = 64
    #: estimated queue wait (seconds) beyond which the gate sheds new work
    #: with ``overloaded`` even before ``max_pending`` fills -- the knob that
    #: keeps p99 bounded under overload.  ``None`` disables the estimate and
    #: falls back to the static ``max_pending`` cap alone.
    max_queue_wait_seconds: Optional[float] = 30.0
    #: per-request line cap; longer lines get a ``too_large`` error.
    max_request_bytes: int = protocol.MAX_LINE_BYTES
    #: ``"serial"`` | ``"processes"``: the ``corpus`` verb fans its programs
    #: out to worker processes under ``"processes"`` (the CPU-heavy solving
    #: escapes the GIL); a single ``analyze`` always solves in-process.  See
    #: docs/operations.md.
    backend: str = "serial"
    #: worker count for corpus fan-out (``None``: min(8, cpus)).
    backend_workers: Optional[int] = None
    #: open incremental sessions allowed at once (a disconnected client's
    #: sessions stay reclaimable only via this bound).
    max_sessions: int = 64
    #: honour the ``shutdown`` verb (off by default; tests and CI enable it).
    allow_shutdown: bool = False


class _Session:
    """One open incremental session and the lock serializing its edits."""

    def __init__(self, session: IncrementalSession) -> None:
        self.session = session
        self.lock = asyncio.Lock()
        self.program_id: Optional[str] = None
        self.edits = 0


class TypeQueryServer:
    """The asyncio daemon.  Construct, ``await start()``, then serve."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        service: Optional[AnalysisService] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.service = service or AnalysisService(
            ServiceConfig(
                use_cache=True,
                cache_capacity=self.config.cache_capacity,
                cache_dir=self.config.store_dir,
                executor=self.config.backend,
                max_workers=self.config.backend_workers,
            )
        )
        if self.service.store is None:
            raise ValueError("the type-query server requires a service with a summary store")
        self.registry = ProgramRegistry(self.config.registry_capacity)
        self._environment = environment_fingerprint(
            self.service.lattice, self.service.extern_table, self.service.config.solver
        )
        self._sessions: Dict[str, _Session] = {}
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency, thread_name_prefix="repro-analyze"
        )
        self._gate: Optional[asyncio.Semaphore] = None  # loop-bound; made in start()
        self._pending = 0
        self._running = 0
        #: EWMA of successful gated-job service times; failures are excluded
        #: because they return fast and would drag the estimate optimistic.
        self._service_ewma = 0.0
        #: job token -> monotonic start time of jobs holding a gate slot; the
        #: oldest age floors the service estimate so a stalled gate looks
        #: expensive even before anything completes.
        self._running_started: Dict[int, float] = {}
        self._job_ids = itertools.count(1)
        self.coalesced_total = 0
        #: successful replies by verb, error replies by (verb, code), sheds
        #: by reason, and per-verb latency: the only copy of each count.
        self._requests: "collections.Counter[str]" = collections.Counter()
        self._errors: "collections.Counter[Tuple[str, str]]" = collections.Counter()
        self._sheds: "collections.Counter[str]" = collections.Counter()
        self._latency: Dict[str, Histogram] = collections.defaultdict(Histogram)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._started = 0.0
        self._stopping: Optional[asyncio.Event] = None
        self.connections_accepted = 0

    @property
    def requests_served(self) -> int:
        return sum(self._requests.values())

    @property
    def errors_returned(self) -> int:
        return sum(self._errors.values())

    @property
    def shed_total(self) -> int:
        return sum(self._sheds.values())

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port) -- port 0 resolves."""
        self._gate = asyncio.Semaphore(self.config.max_concurrency)
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_request_bytes,
        )
        self._started = time.monotonic()
        sockname = self._server.sockets[0].getsockname()
        host, port = sockname[0], sockname[1]
        logger.info("type-query server listening on %s:%d", host, port)
        return host, port

    async def serve_forever(self) -> None:
        """Serve until :meth:`aclose` (or an allowed ``shutdown`` verb) fires."""
        assert self._server is not None and self._stopping is not None
        try:
            await self._stopping.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain live connection handlers so teardown never logs stray
        # cancellations (handlers treat cancellation as an orderly hangup).
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        # Release the service's worker processes (no-op for serial).
        self.service.close()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        peer = writer.get_extra_info("peername")
        logger.debug("connection from %s", peer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line overran the StreamReader limit; framing is lost,
                    # so answer once and hang up.
                    self._errors["unknown", ErrorCode.TOO_LARGE] += 1
                    writer.write(
                        protocol.encode(
                            protocol.make_error(
                                None,
                                ErrorCode.TOO_LARGE,
                                f"request line exceeds {self.config.max_request_bytes} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                writer.write(await self._respond(line))
                # Backpressure: never read the next request while this
                # client's socket buffer is still full of the last answer.
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown while this connection was open: hang up quietly
            # (completing, not re-raising, keeps the task out of the logs).
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError, OSError):
                # CancelledError here means the server was torn down while the
                # transport was draining; completing quietly is the goal.
                pass
            logger.debug("connection from %s closed", peer)

    async def _respond(self, line: bytes) -> bytes:
        """One request line -> one encoded response line (never raises)."""
        request_id: Optional[int] = None
        op = "unknown"
        tracer = get_tracer()
        span = None
        token = None
        start = time.perf_counter()
        try:
            message = protocol.decode_line(line)
            # Salvage the correlation id before validation so even version /
            # shape errors reach the right caller.
            candidate = message.get("id")
            if isinstance(candidate, (int, str)):
                request_id = candidate
            op, params, request_id = protocol.validate_request(message)
            # One *detached* root span per request: interleaved coroutines
            # share this thread, so the span must not enter the nesting stack.
            # Its context rides the contextvar so executor-side work (and
            # procpool workers beyond) parent under it.
            span = tracer.start_span(f"server.{op}")
            token = _REQUEST_SPAN.set(tracer.context_for(span))
            result = await self._dispatch(op, params)
            self._requests[op] += 1
            self._latency[op].observe(time.perf_counter() - start)
            if isinstance(result, bytes):  # already encoded: a whole-program query
                return protocol.encode_response(request_id, result)
            return protocol.encode(protocol.make_response(request_id, result))
        except ProtocolError as exc:
            self._errors[op, exc.code] += 1
            return protocol.encode(protocol.make_error(request_id, exc.code, exc.message))
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            logger.exception("internal error handling request")
            self._errors[op, ErrorCode.INTERNAL_ERROR] += 1
            return protocol.encode(
                protocol.make_error(
                    request_id, ErrorCode.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
                )
            )
        finally:
            if token is not None:
                _REQUEST_SPAN.reset(token)
            if span is not None:
                tracer.finish(span)

    # -- the global concurrency gate -------------------------------------------

    #: weight of the newest sample in the service-time EWMA.
    _EWMA_ALPHA = 0.3

    def _estimated_queue_wait(self) -> float:
        """Seconds a newly admitted job would wait before holding a gate slot.

        Zero while any slot is free.  Otherwise the per-job service estimate
        -- the EWMA of completed gated jobs, floored by the age of the oldest
        job currently running -- scaled by the queue positions the newcomer
        would sit behind, spread over the gate's ``max_concurrency`` lanes.
        """
        slots = self.config.max_concurrency
        if self._running < slots:
            return 0.0
        service = self._service_ewma
        if self._running_started:
            oldest_age = time.monotonic() - min(self._running_started.values())
            service = max(service, oldest_age)
        queued = max(0, self._pending - self._running)
        return (queued + 1) / slots * service

    def _shed(self, reason: str, message: str) -> ProtocolError:
        self._sheds[reason] += 1
        return ProtocolError(ErrorCode.OVERLOADED, message)

    async def _run_gated(self, fn: Callable[[], object]) -> object:
        """Run blocking analysis work on the pool, bounded by the global gate.

        Admission control sheds *before* queueing: the ``overloaded`` error
        raises synchronously (no awaits between the checks and the reply
        path), when either the static ``max_pending`` cap is hit or the
        estimated queue wait exceeds ``max_queue_wait_seconds`` -- so a shed
        request never sits in the queue and tail latency under overload is
        bounded by the wait cap, not the queue depth.

        Accounting invariant: ``_pending``/``_running`` (read by the
        ``server_gate_pending``/``server_gate_inflight`` gauges) move up and
        down exactly once each on every exit path -- success, a raising
        pooled job, or the awaiting client disconnecting while queued
        (cancellation unwinds through the same ``finally`` blocks).
        """
        assert self._gate is not None
        if self._pending >= self.config.max_pending:
            raise self._shed(
                "max_pending",
                f"{self._pending} analyses already queued (max_pending="
                f"{self.config.max_pending}); retry later",
            )
        wait_cap = self.config.max_queue_wait_seconds
        if wait_cap is not None:
            estimate = self._estimated_queue_wait()
            if estimate > wait_cap:
                raise self._shed(
                    "queue_wait",
                    f"estimated queue wait {estimate:.2f}s exceeds "
                    f"max_queue_wait_seconds={wait_cap}; retry later",
                )
        tracer = get_tracer()
        context = _REQUEST_SPAN.get()
        if tracer.enabled and context is not None:
            # Executor threads don't inherit the request's root span; attach
            # its shipped context so analysis spans parent under the verb.
            work = lambda: self._attached_call(tracer, context, fn)  # noqa: E731
        else:
            work = fn
        self._pending += 1
        try:
            async with self._gate:
                job = next(self._job_ids)
                started = time.monotonic()
                self._running += 1
                self._running_started[job] = started
                try:
                    loop = asyncio.get_running_loop()
                    result = await loop.run_in_executor(self._executor, work)
                finally:
                    self._running -= 1
                    self._running_started.pop(job, None)
                # Reached only on success: failed jobs (parse errors return
                # in microseconds) must not feed the service-time estimate.
                elapsed = time.monotonic() - started
                if self._service_ewma:
                    self._service_ewma += self._EWMA_ALPHA * (elapsed - self._service_ewma)
                else:
                    self._service_ewma = elapsed
                return result
        finally:
            self._pending -= 1

    @staticmethod
    def _attached_call(tracer, context, fn: Callable[[], object]) -> object:
        with tracer.attach(context):
            return fn()

    # -- program intake --------------------------------------------------------

    def _parse_source(self, source: str, kind: str):
        """Source text -> IR program (executor thread; raises ProtocolError)."""
        try:
            if kind == "c":
                from ..frontend import compile_c

                return compile_c(source).program
            return parse_program(source)
        except Exception as exc:  # parse/typecheck/codegen failures are client errors
            raise ProtocolError(
                ErrorCode.PARSE_ERROR, f"{kind} source rejected: {exc}"
            )

    def _analyze_source(self, source: str, kind: str):
        """Full intake on an executor thread: parse then analyze."""
        program = self._parse_source(source, kind)
        try:
            return self.service.analyze(program)
        except ProtocolError:
            raise
        except Exception as exc:
            raise ProtocolError(ErrorCode.ANALYSIS_ERROR, f"analysis failed: {exc}")

    def _program_id(self, source: str, kind: str) -> str:
        return ProgramRegistry.make_id(kind, source, self._environment)

    async def _intake(self, params: Dict[str, object]) -> Tuple[str, object, bool]:
        """Shared analyze path: returns (program_id, types, served_from_registry).

        In-flight requests are single-flight coalesced by content hash: when
        N clients submit the same never-seen source concurrently, exactly one
        leader runs the analysis while the other N-1 followers await its
        future (counted by ``server_coalesced_total``) and build their
        replies from the same result object -- so all N responses are
        byte-identical, ``cached: false`` included: the solve happened in
        *this* flight, for followers no less than for the leader.  Duplicate
        submissions therefore cannot saturate the gate.  A leader whose own
        client disconnects mid-solve fails its future with cancellation;
        followers must not surface a stranger's hangup, so they loop and one
        of them is elected the new leader.
        """
        source = protocol.require_str(params, "source")
        kind = protocol.source_kind(params)
        program_id = self._program_id(source, kind)
        while True:
            types = self.registry.get(program_id)
            if types is not None:
                return program_id, types, True
            existing = self._inflight.get(program_id)
            if existing is None:
                break  # no flight to join: become the leader below
            self.coalesced_total += 1
            try:
                return program_id, await asyncio.shield(existing), False
            except asyncio.CancelledError:
                leader_died = existing.cancelled() or (
                    existing.done()
                    and isinstance(existing.exception(), asyncio.CancelledError)
                )
                if leader_died:
                    continue  # elect a new leader instead of failing this request
                raise  # *this* request's connection went away
        future = asyncio.get_running_loop().create_future()
        self._inflight[program_id] = future
        try:
            types = await self._run_gated(lambda: self._analyze_source(source, kind))
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                future.exception()  # mark retrieved: waiters re-raise, logs stay quiet
            raise
        else:
            # First writer wins: a racing corpus batch may have admitted the
            # program already, and queries could have observed its entry.
            types = self.registry.admit_if_absent(program_id, types)
            if not future.cancelled():
                future.set_result(types)
            return program_id, types, False
        finally:
            self._inflight.pop(program_id, None)

    # -- dispatch --------------------------------------------------------------

    async def _dispatch(self, op: str, params: Dict[str, object]) -> object:
        handler = {
            "ping": self._op_ping,
            "health": self._op_health,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "analyze": self._op_analyze,
            "query": self._op_query,
            "corpus": self._op_corpus,
            "session.open": self._op_session_open,
            "session.edit": self._op_session_edit,
            "session.close": self._op_session_close,
            "shutdown": self._op_shutdown,
        }[op]
        return await handler(params)

    async def _op_ping(self, params: Dict[str, object]) -> Dict[str, object]:
        return {
            "server": protocol.SERVER_NAME,
            "protocol": protocol.PROTOCOL_VERSION,
            "version": __version__,
            "pid": os.getpid(),
        }

    async def _op_health(self, params: Dict[str, object]) -> Dict[str, object]:
        """Cheap liveness for health-checkers: never touches the analysis path.

        ``store_backend`` confirms which summary-store tier the server
        actually mounted (``memory`` or ``disk``).
        """
        return {
            "healthy": True,
            "role": "server",
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "analyses_pending": self._pending,
            "sessions_open": len(self._sessions),
            "store_backend": self.service.store.backend_kind,
        }

    async def _op_stats(self, params: Dict[str, object]) -> Dict[str, object]:
        # With a program_id: per-stage solver timings for that analyzed
        # program (graph build / saturate / simplify / sketch), so operators
        # can see where a live daemon's time goes.  Without: daemon counters.
        if params.get("program_id") is not None:
            program_id = protocol.require_str(params, "program_id")
            types = self.registry.get(program_id)
            if types is None:
                raise ProtocolError(
                    ErrorCode.UNKNOWN_PROGRAM,
                    f"no analyzed program {program_id!r} (analyze it first; the "
                    f"registry keeps the most recent {self.registry.capacity})",
                )
            return protocol.stats_payload(types, program_id)
        store = self.service.store
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "connections_accepted": self.connections_accepted,
            "requests_served": self.requests_served,
            "errors_returned": self.errors_returned,
            "analyses_pending": self._pending,
            # Admission-gate visibility: ``pending`` counts every admitted
            # analysis (queued or running, the number max_pending checks),
            # ``inflight`` the ones actually holding a gate slot.
            "gate": {
                "pending": self._pending,
                "inflight": self._running,
                "max_concurrency": self.config.max_concurrency,
                "max_pending": self.config.max_pending,
                "max_queue_wait_seconds": self.config.max_queue_wait_seconds,
                "estimated_queue_wait_seconds": self._estimated_queue_wait(),
                "service_ewma_seconds": self._service_ewma,
            },
            # Serving-path efficiency counters: analyze submissions folded
            # into another request's in-flight solve, and requests refused by
            # admission control instead of queued.
            "coalesced_total": self.coalesced_total,
            "shed_total": self.shed_total,
            "sessions_open": len(self._sessions),
            "backend": self.config.backend,
            "registry": self.registry.snapshot(),
            "store": store.stats.snapshot() if store is not None else {},
            # Per-worker SolveStats merge of corpus fan-out (empty until the
            # first fanned-out corpus builds the pool).
            "procpool": self.service.procpool_snapshot(),
        }

    async def _op_metrics(self, params: Dict[str, object]) -> Dict[str, object]:
        fmt = params.get("format", "json")
        if not isinstance(fmt, str):
            raise ProtocolError(ErrorCode.INVALID_PARAMS, "format must be a string")
        return protocol.metrics_payload(self._metric_rows(), fmt)

    def _metric_rows(self) -> List[Row]:
        """This server's metric rows, read from the owner of each count."""
        rows: List[Row] = []
        for verb, count in self._requests.items():
            rows.append(("server_requests_total", {"verb": verb}, "counter", count))
        for verb, latency in self._latency.items():
            rows.append(("server_request_seconds", {"verb": verb}, "histogram", latency))
        for (verb, code), count in self._errors.items():
            rows.append(("server_errors_total", {"verb": verb, "code": code}, "counter", count))
        for reason, count in self._sheds.items():
            rows.append(("server_shed_total", {"reason": reason}, "counter", count))
        registry = self.registry.snapshot()
        store = self.service.store.stats
        pool = self.service.procpool_snapshot()
        solved = self.service.solve_stats()
        rows += [
            ("server_coalesced_total", {}, "counter", self.coalesced_total),
            ("server_gate_pending", {}, "gauge", self._pending),
            ("server_gate_inflight", {}, "gauge", self._running),
            ("server_sessions_open", {}, "gauge", len(self._sessions)),
            ("registry_hits_total", {}, "counter", registry["hits"]),
            ("registry_misses_total", {}, "counter", registry["misses"]),
            ("store_hits_total", {}, "counter", store.hits),
            ("store_misses_total", {}, "counter", store.misses),
            ("procpool_chunks_dispatched_total", {}, "counter", pool.get("chunks_dispatched", 0)),
            ("procpool_chunks_failed_total", {}, "counter", pool.get("chunks_failed", 0)),
            ("procpool_sccs_requeued_total", {}, "counter", pool.get("sccs_requeued", 0)),
            ("procpool_worker_busy_seconds_total", {}, "counter", pool.get("busy_seconds", 0)),
            ("solver_sccs_solved_total", {}, "counter", solved.sccs_timed),
        ]
        for stage in ("shapes", "graph", "saturate", "simplify", "sketch"):
            seconds = getattr(solved, f"{stage}_seconds")
            rows.append(("solver_stage_seconds_total", {"stage": stage}, "counter", seconds))
        return rows

    async def _op_analyze(self, params: Dict[str, object]) -> Dict[str, object]:
        program_id, types, cached = await self._intake(params)
        return protocol.analyze_payload(
            types, program_id, cached, full=bool(params.get("full", False))
        )

    async def _op_query(self, params: Dict[str, object]) -> object:
        """One procedure's payload, or the whole program's as cached bytes."""
        program_id = protocol.require_str(params, "program_id")
        types = self.registry.get(program_id)
        if types is None:
            raise ProtocolError(
                ErrorCode.UNKNOWN_PROGRAM,
                f"no analyzed program {program_id!r} (analyze it first; the "
                f"registry keeps the most recent {self.registry.capacity})",
            )
        procedure = params.get("procedure")
        if procedure is None:
            return self.registry.reply(
                program_id,
                types,
                lambda analyzed: protocol.encode_value(
                    protocol.program_payload(analyzed, program_id)
                ),
            )
        if not isinstance(procedure, str):
            raise ProtocolError(ErrorCode.INVALID_PARAMS, "procedure must be a string")
        return protocol.procedure_payload(types, program_id, procedure)

    async def _op_corpus(self, params: Dict[str, object]) -> Dict[str, object]:
        programs = params.get("programs")
        if not isinstance(programs, dict) or not programs:
            raise ProtocolError(
                ErrorCode.INVALID_PARAMS,
                "corpus needs a non-empty 'programs' object: name -> "
                "{'source': ..., 'kind': 'asm'|'c'}",
            )
        normalized: Dict[str, Tuple[str, str]] = {}
        for name, entry in programs.items():
            if isinstance(entry, str):
                entry = {"source": entry}
            if not isinstance(entry, dict):
                raise ProtocolError(
                    ErrorCode.INVALID_PARAMS, f"corpus entry {name!r} must be an object"
                )
            normalized[name] = (
                protocol.require_str(entry, "source"),
                protocol.source_kind(entry),
            )

        def run_batch():
            from ..service.batch import analyze_corpus

            parsed = {
                name: self._parse_source(source, kind)
                for name, (source, kind) in normalized.items()
            }
            return analyze_corpus(parsed, service=self.service)

        report = await self._run_gated(run_batch)
        result: Dict[str, object] = {"programs": {}, "store": self.service.store.stats.snapshot()}
        for name, (source, kind) in normalized.items():
            program_report = report[name]
            program_id = self._program_id(source, kind)
            self.registry.admit(program_id, program_report.types)
            result["programs"][name] = {
                "program_id": program_id,
                "procedures": sorted(program_report.types.functions),
                "cache_hits": program_report.cache_hits,
                "cache_misses": program_report.cache_misses,
                "seconds": program_report.seconds,
            }
        return result

    async def _op_session_open(self, params: Dict[str, object]) -> Dict[str, object]:
        if len(self._sessions) >= self.config.max_sessions:
            raise ProtocolError(
                ErrorCode.OVERLOADED,
                f"{len(self._sessions)} sessions already open (max_sessions="
                f"{self.config.max_sessions}); close one first",
            )
        session_id = uuid.uuid4().hex
        state = _Session(IncrementalSession(self.service))
        # Reserve the slot before awaiting anything: the cap check plus this
        # insert run atomically on the event loop, so concurrent opens cannot
        # overshoot max_sessions.  A failed opening analysis releases it.
        self._sessions[session_id] = state
        try:
            async with state.lock:
                payload = await self._session_analyze(state, params)
        except BaseException:
            self._sessions.pop(session_id, None)
            raise
        payload["session_id"] = session_id
        return payload

    async def _op_session_edit(self, params: Dict[str, object]) -> Dict[str, object]:
        session_id = protocol.require_str(params, "session_id")
        state = self._sessions.get(session_id)
        if state is None:
            raise ProtocolError(
                ErrorCode.UNKNOWN_SESSION, f"no open session {session_id!r}"
            )
        async with state.lock:
            state.edits += 1
            payload = await self._session_analyze(state, params)
        payload["session_id"] = session_id
        payload["edits"] = state.edits
        return payload

    async def _session_analyze(
        self, state: _Session, params: Dict[str, object]
    ) -> Dict[str, object]:
        """Run one (re-)analysis inside a session; annotates invalidation stats."""
        source = protocol.require_str(params, "source")
        kind = protocol.source_kind(params)
        program_id = self._program_id(source, kind)

        def run():
            # Asm goes in as text, so the session re-parses only changed chunks.
            text_or_program = source if kind == "asm" else self._parse_source(source, kind)
            try:
                return state.session.analyze(text_or_program)
            except AsmSyntaxError as exc:
                raise ProtocolError(ErrorCode.PARSE_ERROR, f"{kind} source rejected: {exc}")
            except Exception as exc:
                raise ProtocolError(ErrorCode.ANALYSIS_ERROR, f"analysis failed: {exc}")

        types = await self._run_gated(run)
        self.registry.admit(program_id, types)
        stats = types.stats
        return {
            "program_id": program_id,
            "procedures": sorted(types.functions),
            "signatures": {name: types.signature(name) for name in sorted(types.functions)},
            "invalidated_procedures": list(stats.get("invalidated_procedures", [])),
            "solved_procedures": list(stats.get("solved_procedures", [])),
            "cached_procedures": list(stats.get("cached_procedures", [])),
            "sccs_solved": stats.get("sccs_solved", 0),
            "sccs_cached": stats.get("sccs_cached", 0),
        }

    async def _op_session_close(self, params: Dict[str, object]) -> Dict[str, object]:
        session_id = protocol.require_str(params, "session_id")
        state = self._sessions.pop(session_id, None)
        if state is None:
            raise ProtocolError(
                ErrorCode.UNKNOWN_SESSION, f"no open session {session_id!r}"
            )
        return {"session_id": session_id, "closed": True, "edits": state.edits}

    async def _op_shutdown(self, params: Dict[str, object]) -> Dict[str, object]:
        if not self.config.allow_shutdown:
            raise ProtocolError(
                ErrorCode.SHUTDOWN_DISABLED,
                "remote shutdown is disabled (start the server with --allow-shutdown)",
            )
        assert self._stopping is not None
        self._stopping.set()
        return {"stopping": True}


async def run_server(config: Optional[ServerConfig] = None) -> None:
    """Start a server and serve until shut down (the ``__main__`` entry point)."""
    server = TypeQueryServer(config)
    host, port = await server.start()
    print(f"{protocol.SERVER_NAME} v{__version__} listening on {host}:{port}", flush=True)
    await server.serve_forever()
