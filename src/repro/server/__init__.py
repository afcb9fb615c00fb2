"""The type-query server: a network front door for the analysis service.

Retypd is meant to sit behind an interactive reverse-engineering tool; this
package turns the in-process pipeline into a long-running daemon that many
clients share -- one process, one summary store, one registry of analyzed
programs, served over a newline-delimited JSON protocol.

Modules
-------
``repro.server.protocol``
    The versioned wire format: request/response schema, typed error codes and
    the result-payload builders (also used by the one-shot CLI).
``repro.server.registry``
    Content-hash -> :class:`~repro.pipeline.ProgramTypes` LRU, each entry
    with its whole-program ``query`` reply encoded once; repeat queries are
    dict lookups.
``repro.server.app``
    The asyncio daemon: per-connection backpressure, a global concurrency
    gate, and the ``analyze``/``query``/``corpus``/``session.*`` verbs.
``repro.server.client``
    :class:`TypeQueryClient` (blocking) and :class:`AsyncTypeQueryClient`.

Run a server with ``python -m repro.server --port 8791 --store-dir .cache``
(add ``--backend processes`` to fan ``corpus`` requests out to worker
processes).  The
wire protocol is specified in ``docs/protocol.md``; operator guidance lives
in ``docs/operations.md``.
"""

from .app import ServerConfig, TypeQueryServer, run_server
from .client import (
    AsyncTypeQueryClient,
    RetryPolicy,
    ServerConnectionError,
    TypeQueryClient,
    TypeQueryError,
)
from .protocol import PROTOCOL_VERSION, ErrorCode, ProtocolError
from .registry import ProgramRegistry

__all__ = [
    "AsyncTypeQueryClient",
    "ErrorCode",
    "PROTOCOL_VERSION",
    "ProgramRegistry",
    "ProtocolError",
    "RetryPolicy",
    "ServerConfig",
    "ServerConnectionError",
    "TypeQueryClient",
    "TypeQueryError",
    "TypeQueryServer",
    "run_server",
]
