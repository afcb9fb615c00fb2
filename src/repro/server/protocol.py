"""The type-query wire protocol: newline-delimited JSON, versioned, typed errors.

One message per line, UTF-8 JSON, in both directions.  Requests carry the
protocol version, a client-chosen correlation id, an operation name and a
parameter object::

    {"v": 1, "id": 3, "op": "query", "params": {"program_id": "...", "procedure": "main"}}

Responses echo the id and either carry a result or a typed error::

    {"v": 1, "id": 3, "ok": true, "result": {...}}
    {"v": 1, "id": 3, "ok": false, "error": {"code": "unknown_procedure", "message": "..."}}

The payload builders at the bottom are shared by everything that speaks this
encoding: the asyncio daemon (:mod:`repro.server.app`), the clients
(:mod:`repro.server.client`) and the one-shot CLI (``python -m repro
analyze --json``), so a saved ``--json`` dump is byte-compatible with what the
server returns for the same program.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Optional, Tuple

from ..obs.metrics import render_prometheus, snapshot

#: bump on incompatible message-shape changes; servers reject other versions.
PROTOCOL_VERSION = 1

#: identifies the daemon in ``ping`` responses.
SERVER_NAME = "repro-type-server"

#: default cap on one request line (and the server's StreamReader limit).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ErrorCode:
    """Typed error codes -- stable strings clients can switch on."""

    BAD_REQUEST = "bad_request"  # unparseable line / not a JSON object
    UNSUPPORTED_VERSION = "unsupported_version"
    UNKNOWN_OP = "unknown_op"
    INVALID_PARAMS = "invalid_params"
    PARSE_ERROR = "parse_error"  # the submitted asm / mini-C failed to parse
    ANALYSIS_ERROR = "analysis_error"  # the pipeline itself failed
    UNKNOWN_PROGRAM = "unknown_program"
    UNKNOWN_PROCEDURE = "unknown_procedure"
    UNKNOWN_SESSION = "unknown_session"
    OVERLOADED = "overloaded"  # the global concurrency gate is saturated
    TOO_LARGE = "too_large"  # request line exceeded the server's limit
    SHUTDOWN_DISABLED = "shutdown_disabled"
    INTERNAL_ERROR = "internal_error"

    ALL = frozenset(
        {
            BAD_REQUEST,
            UNSUPPORTED_VERSION,
            UNKNOWN_OP,
            INVALID_PARAMS,
            PARSE_ERROR,
            ANALYSIS_ERROR,
            UNKNOWN_PROGRAM,
            UNKNOWN_PROCEDURE,
            UNKNOWN_SESSION,
            OVERLOADED,
            TOO_LARGE,
            SHUTDOWN_DISABLED,
            INTERNAL_ERROR,
        }
    )


#: operations a conforming server must implement.
OPERATIONS = frozenset(
    {
        "ping",
        "health",
        "stats",
        "metrics",
        "analyze",
        "query",
        "corpus",
        "session.open",
        "session.edit",
        "session.close",
        "shutdown",
    }
)

#: Verbs a client may safely resend after a transport failure mid-request.
#: ``query``/``stats``/``metrics``/``health``/``ping`` are pure reads;
#: ``analyze``/``corpus`` are content-addressed (resubmission is a registry
#: hit, never a second solve), so replaying them cannot change server state.
#: ``session.*`` are stateful -- a retried ``session.edit`` whose first copy
#: was applied before the connection died would double-apply the edit -- and
#: ``shutdown`` is one-way, so none of them belong here.
IDEMPOTENT_OPERATIONS = frozenset(
    {"ping", "health", "stats", "metrics", "analyze", "query", "corpus"}
)

#: formats the ``metrics`` verb can render its snapshot in.
METRICS_FORMATS = frozenset({"json", "prometheus"})

#: program source kinds accepted by ``analyze``/``corpus``/``session.open``.
SOURCE_KINDS = frozenset({"asm", "c"})


class ProtocolError(Exception):
    """A request failure with a typed code; the server turns it into an error reply."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ErrorCode.ALL, f"untyped error code {code!r}"
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# Message construction / parsing
# ---------------------------------------------------------------------------


def make_request(
    op: str,
    params: Optional[Mapping[str, object]] = None,
    request_id: Optional[int] = None,
) -> Dict[str, object]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "params": dict(params or {}),
    }


def make_response(request_id: Optional[int], result: object) -> Dict[str, object]:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def make_error(
    request_id: Optional[int], code: str, message: str
) -> Dict[str, object]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_value(value: object) -> bytes:
    """One JSON value, serialized exactly as :func:`encode` serializes it in a message."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str).encode(
        "utf-8"
    )


def encode(message: Mapping[str, object]) -> bytes:
    """One protocol message -> one UTF-8 JSON line (compact, key-sorted)."""
    return encode_value(message) + b"\n"


def encode_response(request_id: Optional[int], result: bytes) -> bytes:
    """A success line around a result already serialized by :func:`encode_value`.

    Byte-identical to ``encode(make_response(request_id, value))`` where
    ``result == encode_value(value)``: the envelope's keys sort as ``id``,
    ``ok``, ``result``, ``v``, and the id goes through the same encoder.  The
    server answers whole-program queries this way from bytes it encoded once.
    """
    return b'{"id":%s,"ok":true,"result":%s,"v":%d}\n' % (
        encode_value(request_id),
        result,
        PROTOCOL_VERSION,
    )


def decode_line(line: bytes) -> Dict[str, object]:
    """One received line -> message dict; raises :class:`ProtocolError` if malformed."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(ErrorCode.BAD_REQUEST, f"unparseable request line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(ErrorCode.BAD_REQUEST, "request must be a JSON object")
    return message


def validate_request(
    message: Mapping[str, object],
) -> Tuple[str, Dict[str, object], Optional[int]]:
    """Check version/shape; returns ``(op, params, request_id)``."""
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError(ErrorCode.BAD_REQUEST, "request id must be int, str or null")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"protocol version {version!r} not supported (server speaks {PROTOCOL_VERSION})",
        )
    op = message.get("op")
    if not isinstance(op, str) or op not in OPERATIONS:
        raise ProtocolError(ErrorCode.UNKNOWN_OP, f"unknown operation {op!r}")
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(ErrorCode.INVALID_PARAMS, "params must be a JSON object")
    return op, params, request_id


def require_str(params: Mapping[str, object], key: str) -> str:
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            ErrorCode.INVALID_PARAMS, f"missing or non-string parameter {key!r}"
        )
    return value


def source_kind(params: Mapping[str, object]) -> str:
    kind = params.get("kind", "asm")
    if kind not in SOURCE_KINDS:
        raise ProtocolError(
            ErrorCode.INVALID_PARAMS,
            f"unknown source kind {kind!r} (expected one of {sorted(SOURCE_KINDS)})",
        )
    return kind


# ---------------------------------------------------------------------------
# Result payloads (shared by server, clients and the one-shot CLI)
# ---------------------------------------------------------------------------


def analyze_payload(
    types, program_id: str, cached: bool, full: bool = False
) -> Dict[str, object]:
    """The ``analyze`` result: id + signatures, optionally the full program."""
    payload: Dict[str, object] = {
        "program_id": program_id,
        "cached": cached,
        "procedures": sorted(types.functions),
        "signatures": {name: types.signature(name) for name in sorted(types.functions)},
    }
    if full:
        payload["program"] = program_payload(types, program_id)
    return payload


def program_payload(types, program_id: Optional[str] = None) -> Dict[str, object]:
    """The whole-program payload (``query`` without a procedure)."""
    payload = types.to_json()
    if program_id is not None:
        payload["program_id"] = program_id
    return payload


def stats_payload(types, program_id: str) -> Dict[str, object]:
    """The per-program ``stats`` result: where the analysis spent its time.

    ``stage_seconds`` is the :class:`~repro.core.solver.SolveStats` record the
    core accumulated while solving this program's SCCs (graph build,
    saturation, simplification queries, sketch construction), as plumbed
    through the service layer; the surrounding fields put it in context
    (constraint generation, end-to-end solve time, cache reuse).  For a fully
    cache-served re-analysis every stage is 0.0 -- no core work ran.
    """
    stats = types.stats
    stage = stats.get("stage_seconds", {})
    workers = stats.get("worker_stats", {})
    return {
        "program_id": program_id,
        "procedures": sorted(types.functions),
        "stage_seconds": dict(stage) if isinstance(stage, dict) else stage,
        "constraint_generation_seconds": stats.get("constraint_generation_seconds"),
        "solve_seconds": stats.get("solve_seconds"),
        "total_seconds": stats.get("total_seconds"),
        "sccs_solved": stats.get("sccs_solved"),
        "sccs_cached": stats.get("sccs_cached"),
        "constraints": stats.get("constraints"),
        "generated_procedures": stats.get("generated_procedures", []),
        "instructions": stats.get("instructions"),
        # Executor accounting: "processes" when corpus fan-out solved this
        # program on a worker (whose SolveStats ride along, keyed by pid),
        # and how many SCCs were requeued in-process after that worker
        # failed (always 0 on the serial path).
        "executor": stats.get("executor", "serial"),
        "worker_stats": dict(workers) if isinstance(workers, dict) else workers,
        "worker_failed": stats.get("worker_failed", 0),
    }


def metrics_payload(rows, fmt: str = "json") -> Dict[str, object]:
    """The ``metrics`` result: one server's metric rows, rendered.

    ``rows`` are ``(name, labels, kind, value)`` tuples (see
    :mod:`repro.obs.metrics`).  ``"json"`` returns the structured snapshot
    (counters/gauges/histograms with p50/p95/p99, keyed by rendered metric
    name); ``"prometheus"`` returns the text exposition in a ``text`` field
    for scrapers.
    """
    if fmt not in METRICS_FORMATS:
        raise ProtocolError(
            ErrorCode.INVALID_PARAMS,
            f"unknown metrics format {fmt!r} (expected one of {sorted(METRICS_FORMATS)})",
        )
    if fmt == "prometheus":
        return {"format": "prometheus", "text": render_prometheus(rows)}
    return snapshot(rows)


def procedure_payload(types, program_id: str, procedure: str) -> Dict[str, object]:
    """The per-procedure ``query`` result: signature, scheme, sketches, layout."""
    from ..core.ctype import ctype_to_json

    if procedure not in types.functions:
        raise ProtocolError(
            ErrorCode.UNKNOWN_PROCEDURE,
            f"program {program_id} has no procedure {procedure!r}",
        )
    payload = types.functions[procedure].to_json()
    payload["program_id"] = program_id
    payload["structs"] = {
        name: {"type": ctype_to_json(struct), "c": f"{struct};"}
        for name, struct in sorted(types.procedure_structs(procedure).items())
    }
    return payload
