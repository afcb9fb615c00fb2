"""The summary store: a content-addressed cache of per-SCC type summaries.

The unit of caching is one call-graph SCC, because that is the unit the solver
processes atomically (section 4.2): every procedure in an SCC is typed against
the *schemes* of the procedures below it, so an SCC's result is a pure function
of

* the IR of its member procedures,
* the summaries of every callee SCC (recursively -- the key is transitive),
* the lattice, the extern table and the solver configuration.

Hashing all of that into the cache key makes invalidation automatic: editing a
procedure changes its SCC's key and, transitively, the key of every caller SCC,
which is exactly the re-analysis cone of the incremental driver.  Two different
programs that share identically-compiled procedures (the statically-linked
clusters of Figure 10) produce identical keys and share summaries.

The store itself is two-tiered: a bounded in-memory LRU and an optional
persistent tier (a directory or the fleet's store daemon) for reuse across
processes.  The memory tier keeps *decoded* summaries: a JSON payload that
arrives from a backend or a worker process is decoded on its first
:meth:`SummaryStore.get` and replaced in place, so a warm analysis pays no
per-SCC decode.  JSON exists only at the disk, socket and process-pool
boundaries.  Sharing one decoded summary between analyses is safe because
nothing mutates a summary once it is built: ``ProcedureSummary.to_result``
copies the sketch maps, refinement replaces map entries with fresh
``meet``/``join`` sketches, and display only reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket as socket_module
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.lattice import TypeLattice
from ..core.schemes import TypeScheme
from ..core.sketches import Sketch
from ..core.solver import (
    ProcedureResult,
    ProcedureTypingInput,
    RefinementContribution,
    SolverConfig,
)
from ..core.variables import DerivedTypeVariable, parse_dtv
from ..ir.program import Procedure, Program
from ..obs.metrics import get_registry
from ..obs.trace import checkpoint, get_tracer
from ..typegen.externs import ExternSignature


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

#: bump when the summary payload layout changes so stale disk tiers never load
#: (v2 added each procedure's formal variables).  The environment fingerprint
#: hashes it, so entries of another format are never even looked up.
STORE_FORMAT = "retypd-summary-v2"


def stable_hash(*parts: object) -> str:
    """SHA-256 of a tuple of JSON-able parts, stable across processes."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def procedure_fingerprint(procedure: Procedure) -> str:
    """Content hash of one procedure's IR (its canonical textual form)."""
    return hashlib.sha256(str(procedure).encode("utf-8")).hexdigest()


def program_fingerprints(program: Program) -> Dict[str, str]:
    """Content hash of every procedure in a program."""
    fingerprints = {}
    for name, proc in program.procedures.items():
        fingerprints[name] = procedure_fingerprint(proc)
        checkpoint()
    return fingerprints


def externs_fingerprint(externs: Mapping[str, ExternSignature]) -> str:
    """Stable hash of the extern table (signatures affect generated constraints)."""
    return stable_hash(
        sorted(
            (
                sig.name,
                sig.stack_params,
                sig.has_return,
                sig.variadic,
                list(sig.constraints),
                list(sig.quantified),
            )
            for sig in externs.values()
        )
    )


def solver_config_fingerprint(config: SolverConfig) -> str:
    return stable_hash(
        config.precise_bounds,
        config.max_scheme_depth,
        config.refine_parameters,
        config.polymorphic,
    )


def environment_fingerprint(
    lattice: TypeLattice,
    externs: Mapping[str, ExternSignature],
    config: SolverConfig,
) -> str:
    """Everything outside the procedures themselves that solving depends on.

    Deliberately program-independent: constraint generation reads only the
    extern *signature table* (never the program's declared extern set), so two
    programs sharing identically-compiled procedures share summaries even when
    their declaration headers differ.
    """
    return stable_hash(
        STORE_FORMAT,
        lattice.fingerprint(),
        externs_fingerprint(externs),
        solver_config_fingerprint(config),
    )


def scc_summary_keys(
    sccs_bottom_up: Sequence[Sequence[str]],
    edges: Mapping[str, Set[str]],
    fingerprints: Mapping[str, str],
    environment: str,
    memo: Optional[Dict[Tuple, str]] = None,
) -> Dict[Tuple[str, ...], str]:
    """Cache key per SCC, computed bottom-up over the condensation DAG.

    A key hashes the member fingerprints together with the *keys* of all
    callee SCCs, so it transitively covers every procedure the summary was
    derived from (separate-compilation discipline: identical content, under
    an identical environment, yields an identical summary).  ``memo`` maps
    those hash inputs to their key and gains every key computed here, so a
    caller keeping it across versions of a program hashes only what changed.
    """
    keys: Dict[Tuple[str, ...], str] = {}
    key_of_member: Dict[str, str] = {}
    if memo is None:
        memo = {}
    for scc in sccs_bottom_up:
        members = set(scc)
        callee_keys = sorted(
            {
                key_of_member[callee]
                for name in scc
                for callee in edges.get(name, ())
                if callee not in members and callee in key_of_member
            }
        )
        inputs = (
            tuple(sorted(fingerprints[name] for name in scc)),
            tuple(callee_keys),
            environment,
        )
        key = memo.get(inputs)
        if key is None:
            key = memo[inputs] = stable_hash(*inputs)
        keys[tuple(scc)] = key
        for name in scc:
            key_of_member[name] = key
    return keys


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


@dataclass
class ProcedureSummary:
    """The reusable result of typing one procedure: scheme, formals, sketches.

    ``formal_ins``/``formal_outs`` are the procedure's formal variables in
    interface order (the same tuples its typing input carries): a cached
    procedure needs nothing else to be displayed or to give its callers a
    :class:`~repro.typegen.abstract_interp.CalleeInfo`, so a store hit skips
    constraint generation entirely.  The sketch maps cover only the formals
    the solver could type.  ``contributions`` carries the REFINEPARAMETERS
    inputs this procedure (as a *caller*) feeds to its callees' formals;
    refinement is re-applied as pure sketch arithmetic on every run, so
    cached and freshly-solved procedures compose into exactly the results a
    cold whole-program run would produce.
    """

    name: str
    scheme: TypeScheme
    formal_ins: Tuple[DerivedTypeVariable, ...]
    formal_outs: Tuple[DerivedTypeVariable, ...]
    formal_in_sketches: Dict[DerivedTypeVariable, Sketch]
    formal_out_sketches: Dict[DerivedTypeVariable, Sketch]
    contributions: List[RefinementContribution] = dc_field(default_factory=list)

    def to_result(self) -> ProcedureResult:
        """Materialize a solver result (shapes are not preserved by caching)."""
        return ProcedureResult(
            name=self.name,
            scheme=self.scheme,
            formal_in_sketches=dict(self.formal_in_sketches),
            formal_out_sketches=dict(self.formal_out_sketches),
            shapes=None,
        )


@dataclass
class SCCSummary:
    """Summaries for every member of one solved SCC."""

    members: Tuple[str, ...]
    procedures: Dict[str, ProcedureSummary]


def summarize_scc(
    scc: Sequence[str],
    inputs: Mapping[str, ProcedureTypingInput],
    results: Mapping[str, ProcedureResult],
    contributions: Mapping[str, List[RefinementContribution]],
) -> SCCSummary:
    """Package freshly-solved SCC results (pre-refinement) for the store."""
    out: Dict[str, ProcedureSummary] = {}
    for name in scc:
        result = results[name]
        out[name] = ProcedureSummary(
            name=name,
            scheme=result.scheme,
            formal_ins=tuple(inputs[name].formal_ins),
            formal_outs=tuple(inputs[name].formal_outs),
            formal_in_sketches=dict(result.formal_in_sketches),
            formal_out_sketches=dict(result.formal_out_sketches),
            contributions=list(contributions.get(name, ())),
        )
    return SCCSummary(members=tuple(scc), procedures=out)


def _formal_entries(
    formals: Sequence[DerivedTypeVariable], sketches: Mapping[DerivedTypeVariable, Sketch]
) -> List[List[object]]:
    """``[variable, sketch JSON or None]`` per formal, in interface order."""
    return [
        [str(dtv), sketches[dtv].to_json() if dtv in sketches else None]
        for dtv in formals
    ]


def _parse_formal_entries(
    entries: Sequence[Sequence[object]], lattice: TypeLattice
) -> Tuple[Tuple[DerivedTypeVariable, ...], Dict[DerivedTypeVariable, Sketch]]:
    """Inverse of :func:`_formal_entries`: the formals and their sketch map."""
    formals: List[DerivedTypeVariable] = []
    sketches: Dict[DerivedTypeVariable, Sketch] = {}
    for text, data in entries:
        dtv = parse_dtv(text)
        formals.append(dtv)
        if data is not None:
            sketches[dtv] = Sketch.from_json(data, lattice)
    return tuple(formals), sketches


def serialize_summary(summary: SCCSummary) -> Dict[str, object]:
    """SCC summary -> JSON-able payload (see the round-trip tests)."""
    return {
        "format": STORE_FORMAT,
        "members": list(summary.members),
        "procedures": {
            name: {
                "scheme": proc.scheme.to_json(),
                "formal_ins": _formal_entries(proc.formal_ins, proc.formal_in_sketches),
                "formal_outs": _formal_entries(proc.formal_outs, proc.formal_out_sketches),
                "contributions": [
                    {
                        "caller": c.caller,
                        "callee": c.callee,
                        "formal": str(c.formal),
                        "kind": c.kind,
                        "sketch": c.sketch.to_json(),
                    }
                    for c in proc.contributions
                ],
            }
            for name, proc in summary.procedures.items()
        },
    }


def deserialize_summary(payload: Mapping[str, object], lattice: TypeLattice) -> SCCSummary:
    """JSON payload -> SCC summary (inverse of :func:`serialize_summary`)."""
    procedures: Dict[str, ProcedureSummary] = {}
    for name, entry in payload["procedures"].items():
        formal_ins, formal_in_sketches = _parse_formal_entries(entry["formal_ins"], lattice)
        formal_outs, formal_out_sketches = _parse_formal_entries(
            entry["formal_outs"], lattice
        )
        procedures[name] = ProcedureSummary(
            name=name,
            scheme=TypeScheme.from_json(entry["scheme"]),
            formal_ins=formal_ins,
            formal_outs=formal_outs,
            formal_in_sketches=formal_in_sketches,
            formal_out_sketches=formal_out_sketches,
            contributions=[
                RefinementContribution(
                    caller=c["caller"],
                    callee=c["callee"],
                    formal=parse_dtv(c["formal"]),
                    kind=c["kind"],
                    sketch=Sketch.from_json(c["sketch"], lattice),
                )
                for c in entry["contributions"]
            ],
        )
    return SCCSummary(members=tuple(payload["members"]), procedures=procedures)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class StoreStats:
    """Hit/miss accounting for one store (cumulative across programs)."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    remote_errors: int = 0
    puts: int = 0
    evictions: int = 0
    quarantined: int = 0
    #: memory-tier payloads decoded into summaries (once per admitted payload)
    decodes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "remote_hits": self.remote_hits,
            "remote_errors": self.remote_errors,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "decodes": self.decodes,
            "hit_rate": self.hit_rate,
        }


# ---------------------------------------------------------------------------
# Pluggable persistent tiers
# ---------------------------------------------------------------------------


class StoreBackend:
    """One persistent tier of a :class:`SummaryStore`.

    A backend moves raw JSON payloads (already format-stamped, see
    ``STORE_FORMAT``) in and out of somewhere durable or shared: a local
    directory (:class:`DiskStoreBackend`), a fleet-shared store daemon over a
    socket (:class:`SocketStoreBackend`), or nothing at all -- the in-memory
    LRU tier lives in the facade itself, and a store without a backend is
    memory-only.

    The contract every implementation honours:

    * ``get``/``put``/``contains`` never raise on backend trouble -- a broken
      tier degrades to misses (counted on ``stats``), it does not fail the
      analysis that was merely trying to reuse work;
    * payloads are opaque dicts; backends neither parse nor mutate them;
    * implementations are thread-safe (the server drives one store from many
      executor threads).

    ``stats`` is the :class:`StoreStats` the backend reports internal events
    on (quarantines, remote errors); the owning :class:`SummaryStore` rebinds
    it to its own record so one snapshot covers both layers.
    """

    #: discriminator surfaced by ``SummaryStore.backend_kind`` and snapshots.
    kind = "abstract"

    def __init__(self) -> None:
        self.stats = StoreStats()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def put(self, key: str, payload: Dict[str, object]) -> None:
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; further calls degrade to misses."""

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind}


class DiskStoreBackend(StoreBackend):
    """The on-disk JSON tier: two-level fan-out, atomic publishes, quarantine.

    Writes land in a uniquely-named temp file and are published with an atomic
    ``os.replace``, so concurrent writers (threads of one process, or several
    processes pointed at one directory) can never expose a truncated entry,
    and a killed writer leaves only a stray ``*.tmp`` behind.  Entries that
    are nevertheless unreadable -- hand-edited, disk-damaged, or written by an
    incompatible version -- are quarantined (renamed to ``*.corrupt``) rather
    than raised, and count as ordinary misses.
    """

    kind = "disk"

    def __init__(self, cache_dir: str) -> None:
        super().__init__()
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        os.makedirs(cache_dir, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def _quarantine(self, path: str) -> None:
        """Move an unreadable entry aside so it is never re-parsed (or re-hit)."""
        with self._lock:
            self.stats.quarantined += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            # Racing reader already moved it, or the directory is read-only;
            # either way the entry stays a miss.
            pass

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self.path(key)
        # Two attempts before quarantining: a corrupt first read can race a
        # concurrent writer atomically replacing the entry with a good copy,
        # and quarantining *that* would discard valid cache data.
        for attempt in (0, 1):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                return None
            except OSError:
                # Transient I/O pressure (EMFILE, EIO, EACCES): a miss, not
                # evidence of corruption -- leave the entry alone.
                return None
            except ValueError:
                continue  # unparseable JSON: retry once, then quarantine
            if isinstance(payload, dict) and payload.get("format") == STORE_FORMAT:
                return payload
            # Parseable but alien (wrong tool or store format): also corrupt
            # for our purposes, subject to the same retry.
        self._quarantine(path)
        return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Publish one entry atomically; cache-write failures never propagate."""
        path = self.path(key)
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def contains(self, key: str) -> bool:
        return os.path.exists(self.path(key))

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "cache_dir": self.cache_dir}


#: wire name the store daemon announces; clients refuse to pool with others.
STORE_SERVER_NAME = "repro-summary-store"


class SocketStoreBackend(StoreBackend):
    """Client tier for the fleet's shared store daemon.

    Speaks the newline-JSON store protocol of
    :class:`repro.fleet.storeserver.SummaryStoreServer` over one persistent
    TCP connection (a lock serializes requests; replies arrive in order).
    Every failure mode -- daemon down, connection reset, garbage reply --
    degrades to a miss and bumps ``stats.remote_errors``; a reconnect is
    attempted once per operation, so a restarted daemon is picked back up
    without any intervention.
    """

    kind = "socket"

    def __init__(
        self,
        address: str,
        timeout: float = 10.0,
        connect_retries: int = 0,
        connect_delay: float = 0.2,
    ) -> None:
        super().__init__()
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"store address must look like 'host:port', got {address!r}"
            )
        self.host, self.port = host, int(port)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._file = None
        self._sock: Optional[socket_module.socket] = None
        self._closed = False
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
        assert self._file is not None, last_error

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self) -> None:
        sock = socket_module.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        file = sock.makefile("rwb")
        # Handshake: refuse to pool with a daemon speaking another format --
        # a version-skewed store must read as empty, never as corrupt.
        file.write(_store_line({"op": "ping"}))
        file.flush()
        reply = json.loads(file.readline().decode("utf-8"))
        if (
            reply.get("server") != STORE_SERVER_NAME
            or reply.get("format") != STORE_FORMAT
        ):
            file.close()
            sock.close()
            raise OSError(
                f"{self.host}:{self.port} is not a {STORE_FORMAT} store daemon: {reply!r}"
            )
        self._sock, self._file = sock, file

    def _reset(self) -> None:
        for closer in (self._file, self._sock):
            try:
                if closer is not None:
                    closer.close()
            except OSError:
                pass
        self._file = self._sock = None

    def _roundtrip(self, message: Dict[str, object]) -> Optional[Dict[str, object]]:
        """One request/reply; retries once on a fresh connection, never raises."""
        if self._closed:
            return None
        with self._lock:
            for attempt in (0, 1):
                try:
                    if self._file is None:
                        self._connect()
                    self._file.write(_store_line(message))
                    self._file.flush()
                    line = self._file.readline()
                    if not line:
                        raise OSError("store daemon closed the connection")
                    reply = json.loads(line.decode("utf-8"))
                    if not isinstance(reply, dict) or not reply.get("ok"):
                        raise OSError(f"store daemon error reply: {reply!r}")
                    return reply
                except (OSError, ValueError):
                    self._reset()
                    if attempt == 1:
                        self.stats.remote_errors += 1
                        return None
        return None

    def get(self, key: str) -> Optional[Dict[str, object]]:
        reply = self._roundtrip({"op": "get", "key": key})
        if reply is None:
            return None
        payload = reply.get("payload")
        if isinstance(payload, dict) and payload.get("format") == STORE_FORMAT:
            return payload
        return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        self._roundtrip({"op": "put", "key": key, "payload": payload})

    def contains(self, key: str) -> bool:
        reply = self._roundtrip({"op": "contains", "key": key})
        return bool(reply and reply.get("contains"))

    def remote_stats(self) -> Dict[str, object]:
        """The daemon's own store snapshot (empty when unreachable)."""
        reply = self._roundtrip({"op": "stats"})
        if reply is None:
            return {}
        return {k: v for k, v in reply.items() if k != "ok"}

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._reset()

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "address": self.address}


def _store_line(message: Mapping[str, object]) -> bytes:
    """One store-protocol message -> one UTF-8 JSON line."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def make_backend(
    cache_dir: Optional[str] = None,
    store_addr: Optional[str] = None,
    connect_retries: int = 25,
) -> Optional[StoreBackend]:
    """The persistent tier for one configuration (``None`` = memory only).

    ``store_addr`` wins over ``cache_dir``: a fleet shard pointed at the
    shared daemon must never shadow it with a private directory, or warm
    hits would stop crossing shards.
    """
    if store_addr:
        return SocketStoreBackend(store_addr, connect_retries=connect_retries)
    if cache_dir:
        return DiskStoreBackend(cache_dir)
    return None


#: one memory-tier entry: a decoded summary, or a payload not yet decoded.
_Entry = Union[SCCSummary, Dict[str, object]]


class SummaryStore:
    """Two-tier summary cache: LRU memory plus a pluggable persistent backend.

    Each memory-tier key holds one form: an :class:`SCCSummary` or its JSON
    payload.  :meth:`put` admits the summary itself (serialized only for a
    backend write); payloads admitted from a backend, a worker process or
    :meth:`admit_payload` are decoded by the first :meth:`get` and replaced
    by the decoded summary, so a repeat hit decodes nothing.
    :meth:`get_payload` -- the form procpool workers and the store daemon
    use -- serializes a decoded entry on demand.  Cached summaries are shared,
    never copied: callers must not mutate them (see the module docstring).

    The persistent tier is a :class:`StoreBackend`: ``cache_dir`` selects the
    on-disk JSON tier (:class:`DiskStoreBackend`, today's default),
    ``store_addr`` the fleet's socket-served shared store
    (:class:`SocketStoreBackend`), and an explicit ``backend`` plugs anything
    else in.  A backend hit is promoted into the memory tier, so the remote
    round-trip (or disk read) is paid once per key per process.
    """

    def __init__(
        self,
        capacity: int = 4096,
        cache_dir: Optional[str] = None,
        store_addr: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("summary store capacity must be at least 1")
        self.capacity = capacity
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = StoreStats()
        if backend is None:
            backend = make_backend(cache_dir=cache_dir, store_addr=store_addr)
        self.backend = backend
        if backend is not None:
            # One shared record: backend-internal events (quarantines, remote
            # errors) land on the same stats the facade snapshots.
            backend.stats = self.stats
        #: the disk tier's directory (``None`` for memory-only and socket
        #: stores); the procpool env codec ships this to workers.
        self.cache_dir = (
            backend.cache_dir if isinstance(backend, DiskStoreBackend) else None
        )

    @property
    def backend_kind(self) -> str:
        """``"memory"`` when no persistent tier, else the backend's kind."""
        return self.backend.kind if self.backend is not None else "memory"

    # -- tiers -----------------------------------------------------------------

    def _disk_path(self, key: str) -> str:
        assert isinstance(self.backend, DiskStoreBackend), "no disk tier configured"
        return self.backend.path(key)

    def _lookup(self, key: str) -> Optional[_Entry]:
        """Memory tier, then the backend; records the hit or miss."""
        entry: Optional[_Entry] = None
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                entry = self._memory[key]
        if entry is None and self.backend is not None:
            entry = self.backend.get(key)
            if entry is not None:
                with self._lock:
                    if self.backend.kind == "socket":
                        self.stats.remote_hits += 1
                    else:
                        self.stats.disk_hits += 1
                self._admit(key, entry)
        with self._lock:
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        registry = get_registry()
        if entry is None:
            registry.counter("store_misses_total").inc()
        else:
            registry.counter("store_hits_total").inc()
        return entry

    def _admit(self, key: str, entry: _Entry) -> None:
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    # -- public API ------------------------------------------------------------

    def get(self, key: str, lattice: TypeLattice) -> Optional[SCCSummary]:
        """Look a summary up by content key, recording a hit or a miss.

        A payload entry is decoded against ``lattice`` once and replaced by
        the summary; later hits return that same (shared) object.
        """
        entry = self._lookup(key)
        if entry is None or isinstance(entry, SCCSummary):
            return entry
        with get_tracer().span("store.decode"):
            summary = deserialize_summary(entry, lattice)
        with self._lock:
            self.stats.decodes += 1
            # Unless a racing reader already decoded it, or it was evicted.
            if self._memory.get(key) is entry:
                self._memory[key] = summary
        checkpoint()
        return summary

    def get_payload(self, key: str) -> Optional[Dict[str, object]]:
        """Look up the *JSON payload* of a summary, recording hit/miss.

        This is the transfer format of the process-pool backend and the store
        daemon: a worker that finds the key in the shared disk tier returns
        the payload verbatim, so a hit never pays deserialize-then-reserialize
        on its way to the parent.  A decoded entry is serialized on demand.
        """
        entry = self._lookup(key)
        if isinstance(entry, SCCSummary):
            return serialize_summary(entry)
        return entry

    def put(self, key: str, summary: SCCSummary) -> None:
        """Admit a freshly-solved SCC summary (serialized only for a backend)."""
        with self._lock:
            self.stats.puts += 1
        self._admit(key, summary)
        if self.backend is not None:
            self.backend.put(key, serialize_summary(summary))

    def admit_payload(
        self, key: str, payload: Dict[str, object], write_disk: bool = True
    ) -> None:
        """Admit an already-serialized summary payload.

        ``write_disk=False`` skips the persistent tier: the process-pool parent
        uses it for summaries its workers solved, because the worker already
        published the entry to the shared directory and a second atomic write
        would only burn I/O.
        """
        with self._lock:
            self.stats.puts += 1
        self._admit(key, payload)
        if write_disk and self.backend is not None:
            self.backend.put(key, payload)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.backend is not None and self.backend.contains(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (the persistent tier, if any, is left untouched)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Release the persistent tier's resources (socket stores hold a
        connection); the memory tier keeps serving."""
        if self.backend is not None:
            self.backend.close()
