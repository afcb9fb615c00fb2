"""The program registry: analyzed programs by content hash, and their encoded replies.

The server's hot path.  A program's identity is the SHA-256 of its source
kind, its source text and the analysis environment (lattice + externs + solver
config fingerprint, the same notion the summary store keys on), so submitting
the same source twice -- from any client -- analyzes once, and changing the
server's environment can never serve stale types, because the id itself
changes.

An entry holds two things:

* the analyzed :class:`~repro.pipeline.ProgramTypes`, which every verb that
  names the program reads (``query``, ``stats``, an ``analyze`` hit);
* the whole-program ``query`` result, JSON-encoded once.  It is built on the
  first ``query`` without a ``procedure`` (so ``analyze`` never pays for it),
  after which such a query is a dict lookup that copies bytes: no
  ``to_json``, no ``json.dumps``.

The bytes go with their entry.  An LRU eviction drops both, and so does
re-admission of the same id through :meth:`ProgramRegistry.admit` (a session
edit or a ``corpus`` batch installs a ``ProgramTypes`` whose ``stats``
differ), so a reply never outlives the types it encodes and the cache is
bounded by the registry's capacity.

The registry is a bounded LRU guarded by a lock: analyses are produced on
executor threads while queries are answered from the event loop.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional


class _Entry:
    """One analyzed program and, once a whole-program query asked, its reply."""

    __slots__ = ("types", "reply")

    def __init__(self, types) -> None:
        self.types = types
        self.reply: Optional[bytes] = None


class ProgramRegistry:
    """Bounded, thread-safe LRU of analyzed programs keyed by content hash."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("program registry capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.admits = 0
        self.evictions = 0

    @staticmethod
    def make_id(kind: str, source: str, environment: str = "") -> str:
        """Content hash identifying one (source, kind, environment) triple."""
        digest = hashlib.sha256()
        for part in (kind, "\x00", environment, "\x00", source):
            digest.update(part.encode("utf-8"))
        return digest.hexdigest()

    def get(self, program_id: str):
        """The analyzed program for this id, or ``None`` (records hit/miss)."""
        with self._lock:
            entry = self._entries.get(program_id)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(program_id)
                self.hits += 1
        return None if entry is None else entry.types

    def reply(self, program_id: str, types, build: Callable[[object], bytes]) -> bytes:
        """The encoded whole-program reply for ``types``, built on first use.

        ``types`` is what :meth:`get` just returned for ``program_id``.  The
        bytes are kept only while that same ``ProgramTypes`` is still the
        entry, so a reply built across a re-admission or an eviction is
        returned to this caller but never cached.
        """
        with self._lock:
            entry = self._entries.get(program_id)
            if entry is not None and entry.types is types and entry.reply is not None:
                return entry.reply
        encoded = build(types)
        with self._lock:
            entry = self._entries.get(program_id)
            if entry is not None and entry.types is types:
                entry.reply = encoded
        return encoded

    def admit(self, program_id: str, types) -> None:
        """Publish an analyzed program, evicting least-recently-used entries.

        Replaces any entry under this id, dropping its cached reply.
        """
        with self._lock:
            self._entries[program_id] = _Entry(types)
            self._entries.move_to_end(program_id)
            self.admits += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def admit_if_absent(self, program_id: str, types):
        """Like :meth:`admit`, but the first writer wins.

        Coalesced analyze leaders publish through this: if a racing path (a
        concurrent ``corpus`` batch, say) already admitted the program, the
        existing entry is kept -- and returned -- so late leaders can never
        replace what queries may already have observed.
        """
        with self._lock:
            existing = self._entries.get(program_id)
            if existing is not None:
                self._entries.move_to_end(program_id)
                return existing.types
            self._entries[program_id] = _Entry(types)
            self.admits += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return types

    def __contains__(self, program_id: str) -> bool:
        with self._lock:
            return program_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "programs": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "admits": self.admits,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
