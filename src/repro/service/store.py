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
on-disk tier (a directory) for reuse across processes.  The memory tier
keeps *decoded* summaries: a JSON payload that arrives from the disk tier or
a worker process is decoded on its first :meth:`SummaryStore.get` and
replaced in place, so a warm analysis pays no per-SCC decode.  JSON exists
only at the disk and process-pool boundaries.  Sharing one decoded summary
between analyses is safe because nothing mutates a summary once it is built:
``ProcedureSummary.to_result`` copies the sketch maps, refinement replaces map
entries with fresh ``meet``/``join`` sketches, and display only reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.lattice import TypeLattice
from ..core.schemes import TypeScheme
from ..core.sketches import Sketch
from ..core.solver import (
    MAX_SCHEME_DEPTH,
    ProcedureResult,
    ProcedureTypingInput,
    RefinementContribution,
    SolverConfig,
)
from ..core.variables import DerivedTypeVariable, parse_dtv
from ..ir.program import Procedure, Program, instruction_line
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
    """:func:`procedure_fingerprint` of every procedure in a program.

    Parsed procedures share one instruction object per distinct line, so
    each object's line is rendered once per call: the hashed text is
    ``str(procedure)``, byte for byte.
    """
    lines: Dict[int, str] = {}
    fingerprints = {}
    for name, procedure in program.procedures.items():
        text = [f"{procedure.name}:"]
        for instruction in procedure.instructions:
            line = lines.get(id(instruction))
            if line is None:
                line = lines[id(instruction)] = instruction_line(instruction)
            text.append(line)
        fingerprints[name] = hashlib.sha256("\n".join(text).encode("utf-8")).hexdigest()
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
    # The scheme depth keeps its slot so keys match those of earlier stores.
    return stable_hash(
        config.precise_bounds,
        MAX_SCHEME_DEPTH,
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
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "decodes": self.decodes,
            "hit_rate": self.hit_rate,
        }


# ---------------------------------------------------------------------------
# The persistent tier
# ---------------------------------------------------------------------------


class DiskStoreBackend:
    """The on-disk JSON tier: two-level fan-out, atomic publishes, quarantine.

    It moves raw JSON payloads (already format-stamped, see ``STORE_FORMAT``)
    in and out of one directory, and keeps this contract:

    * ``get``/``put``/``contains`` never raise on tier trouble -- an
      unreadable directory degrades to misses, it does not fail the analysis
      that was merely trying to reuse work;
    * it is thread-safe (the server drives one store from many executor
      threads);
    * payloads are opaque dicts: the tier checks only their format stamp and
      never mutates them.

    Writes land in a uniquely-named temp file and are published with an atomic
    ``os.replace``, so concurrent writers (threads of one process, or several
    processes pointed at one directory) can never expose a truncated entry,
    and a killed writer leaves only a stray ``*.tmp`` behind.  Entries that
    are nevertheless unreadable -- hand-edited, disk-damaged, or written by an
    incompatible version -- are quarantined (renamed to ``*.corrupt``) rather
    than raised, and count as ordinary misses on ``stats.quarantined``.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        #: quarantine count; a :class:`SummaryStore` rebinds this to its own
        #: record so one snapshot covers both layers.
        self.stats = StoreStats()
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


#: one memory-tier entry: a decoded summary, or a payload not yet decoded.
_Entry = Union[SCCSummary, Dict[str, object]]


class SummaryStore:
    """Two-tier summary cache: LRU memory plus an optional disk tier.

    Each memory-tier key holds one form: an :class:`SCCSummary` or its JSON
    payload.  :meth:`put` admits the summary itself (serialized only for a
    disk write); payloads admitted from the disk tier, a worker process or
    :meth:`admit_payload` are decoded by the first :meth:`get` and replaced
    by the decoded summary, so a repeat hit decodes nothing.  Cached
    summaries are shared, never copied: callers must not mutate them (see
    the module docstring).

    ``cache_dir`` mounts the on-disk JSON tier (:class:`DiskStoreBackend`);
    without it the store is memory-only.  A disk hit is promoted into the
    memory tier, so the disk read is paid once per key per process.
    """

    def __init__(self, capacity: int = 4096, cache_dir: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("summary store capacity must be at least 1")
        self.capacity = capacity
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = StoreStats()
        self.disk: Optional[DiskStoreBackend] = None
        if cache_dir:
            self.disk = DiskStoreBackend(cache_dir)
            self.disk.stats = self.stats
        #: the disk tier's directory (``None`` for a memory-only store); the
        #: procpool env codec ships this to workers.
        self.cache_dir = cache_dir or None

    @property
    def backend_kind(self) -> str:
        """``"disk"`` with a disk tier mounted, else ``"memory"``."""
        return "memory" if self.disk is None else "disk"

    # -- tiers -----------------------------------------------------------------

    def _disk_path(self, key: str) -> str:
        assert self.disk is not None, "no disk tier configured"
        return self.disk.path(key)

    def _lookup(self, key: str) -> Optional[_Entry]:
        """Memory tier, then the disk tier; records the hit or miss."""
        entry: Optional[_Entry] = None
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                entry = self._memory[key]
        if entry is None and self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                self._admit(key, entry)
        with self._lock:
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
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

    def put(self, key: str, summary: SCCSummary) -> None:
        """Admit a freshly-solved SCC summary (serialized only for a disk write)."""
        with self._lock:
            self.stats.puts += 1
        self._admit(key, summary)
        if self.disk is not None:
            self.disk.put(key, serialize_summary(summary))

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
        if write_disk and self.disk is not None:
            self.disk.put(key, payload)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.disk is not None and self.disk.contains(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (the persistent tier, if any, is left untouched)."""
        with self._lock:
            self._memory.clear()
