"""The per-layer ledger: in-memory spans around each layer's public entry points.

Nothing in the program changes.  :func:`install` wraps, from outside, the
functions through which an analysis passes from one layer to the next
(``parse_program``, ``generate_program_constraints``,
``AnalysisService.solve_inputs``, ``infer_shapes``, ``_function_types``,
``ProgramTypes.to_json``, the procpool codec) and :class:`TimingStore` times
the summary store.  Each span records name, start, end, parent and op id; a
layer's self time is its span minus its children.  Spans stay in memory and
are written out as JSONL when the run ends.

The measurement loop opens a root span around every op (``op``) and around every
answer check (``check``); a span belongs to the phase of its root, so the
reference analyses a check runs never count as the op's work.

``py_calls`` come from a separate counted pass: a ``sys.setprofile`` hook
charges every Python call to the innermost open span.  It costs about 3x, so
it never shares a pass with timed spans.
"""

from __future__ import annotations

import collections
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.solver as solver_module
import repro.pipeline as pipeline_module
import repro.service.incremental as incremental_module
import repro.service.procpool as procpool_module
from repro import SummaryStore
from repro.ir.callgraph import CallGraph

#: (owner, attribute, span name) of every wrapped entry point.
ENTRY_POINTS = [
    (incremental_module, "parse_program", "ir.parse"),
    (incremental_module, "generate_program_constraints", "typegen.constraints"),
    (incremental_module, "program_fingerprints", "service.fingerprint"),
    (incremental_module.AnalysisService, "__init__", "service.init"),
    (incremental_module.AnalysisService, "solve_inputs", "core.solve"),
    (CallGraph, "from_program", "service.invalidate"),
    (CallGraph, "transitive_callers", "service.invalidate"),
    (solver_module, "infer_shapes", "core.shapes"),
    (pipeline_module, "_function_types", "pipeline.display"),
    (pipeline_module.ProgramTypes, "to_json", "pipeline.to_json"),
    (procpool_module, "encode_corpus_task", "procpool.codec"),
    (procpool_module, "decode_input", "procpool.codec"),
    (procpool_module.ProcPool, "submit_chunks", "procpool.workers"),
]

#: root span names the measurement loop opens around each op and answer check.
OP, CHECK = "op", "check"

#: (id, parent id, op id, phase, name, start, end)
Span = Tuple[int, Optional[int], Optional[int], str, str, float, float]


class SpanLog:
    """Spans of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (op, phase, span name) -> Python calls, filled by the counted pass.
        self.calls: Dict[tuple, int] = collections.Counter()
        self.store_hits = 0
        self.store_misses = 0
        self._counting = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[int] = None) -> list:
        """Open a span; a root span (no open parent) names its phase."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            frame = [next(self._ids), parent[0], parent[2], parent[3], name, time.perf_counter()]
        else:
            frame = [next(self._ids), None, op, name, name, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack().pop()
        if self._counting:
            return  # profiler-inflated: the counted pass keeps calls, not times
        with self._lock:
            self.spans.append((*frame, end))

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        traced.__wrapped__ = fn
        return traced

    # -- counted pass ----------------------------------------------------------

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            stack = self._stack()
            if stack:
                top = stack[-1]
                self.calls[(top[2], top[3], top[4])] += 1

    def count_calls(self, on: bool) -> None:
        self._counting = on
        sys.setprofile(self._profile if on else None)

    # -- analysis ----------------------------------------------------------------

    def _child_time(self) -> Dict[int, float]:
        child_time: Dict[int, float] = collections.defaultdict(float)
        for _sid, parent, _op, _phase, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return child_time

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """op id -> span name -> summed self seconds inside the op itself."""
        child_time = self._child_time()
        out: Dict[int, Dict[str, float]] = collections.defaultdict(
            lambda: collections.defaultdict(float)
        )
        for sid, _parent, op, span_phase, name, start, end in self.spans:
            if op is not None and span_phase == OP:
                out[op][name] += (end - start) - child_time[sid]
        return out

    def durations(self, name: str) -> List[Tuple[Optional[int], float]]:
        """(op id, seconds) of every span called ``name``, in any phase."""
        return [(s[2], s[6] - s[5]) for s in self.spans if s[4] == name]

    def unattributed_pct(self) -> float:
        """Share of op wall time inside no layer span (op roots' self time)."""
        child_time = self._child_time()
        total = own = 0.0
        for sid, parent, _op, _phase, name, start, end in self.spans:
            if parent is None and name == OP:
                total += end - start
                own += (end - start) - child_time[sid]
        return 100.0 * own / total if total else 0.0

    def op_calls(self) -> Dict[int, Dict[str, int]]:
        """op id -> span name -> Python calls inside the op itself."""
        out: Dict[int, Dict[str, int]] = collections.defaultdict(lambda: collections.defaultdict(int))
        for (op, span_phase, name), count in self.calls.items():
            if op is not None and span_phase == OP:
                out[op][name] += count
        return out

    def write_jsonl(self, path: str, factors: Dict[int, float]) -> None:
        """Spans as JSONL; times in raw ms from the pass start, plus each op's
        normalization factor so a reader can convert to reference speed."""
        origin = min((span[5] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, phase, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "phase": phase, "name": name,
                    "start_ms": round((start - origin) * 1000.0, 4),
                    "end_ms": round((end - origin) * 1000.0, 4),
                    "factor": factors.get(op),
                }) + "\n")


class TimingStore(SummaryStore):
    """A summary store whose reads and writes are ledger spans."""

    def __init__(self, log: SpanLog, **kwargs) -> None:
        super().__init__(**kwargs)
        self._log = log

    def get(self, key, lattice):
        frame = self._log.open("service.store_get")
        try:
            summary = super().get(key, lattice)
        finally:
            self._log.close(frame)
        if summary is None:
            self._log.store_misses += 1
        else:
            self._log.store_hits += 1
        return summary

    def put(self, key, summary) -> None:
        frame = self._log.open("service.store_put")
        try:
            super().put(key, summary)
        finally:
            self._log.close(frame)

    def admit_payload(self, key, payload, write_disk: bool = True) -> None:
        frame = self._log.open("service.store_put")
        try:
            super().admit_payload(key, payload, write_disk=write_disk)
        finally:
            self._log.close(frame)


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the undo."""
    saved = []
    for owner, attribute, name in ENTRY_POINTS:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(log.wrap(original.__func__, name))
        else:
            wrapped = log.wrap(original, name)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall


def p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ledger_table(log: SpanLog, factors: Dict[int, float], counted_ops: int) -> List[str]:
    """Per-layer self time (normalized ms per op) and py_calls per counted op."""
    totals: Dict[str, float] = collections.defaultdict(float)
    for op, names in log.self_times().items():
        for name, seconds in names.items():
            totals[name] += seconds * factors.get(op, 1.0) * 1000.0
    calls: Dict[str, int] = collections.defaultdict(int)
    for names in log.op_calls().values():
        for name, count in names.items():
            calls[name] += count
    ops = max(1, len(factors))
    op_total = sum(totals.values())
    lines = [f"{'layer span':<22} {'self ms/op':>11} {'% of op':>8} {'py_calls/op':>12}"]
    for name in sorted(totals, key=lambda n: -totals[n]):
        share = 100.0 * totals[name] / op_total if op_total else 0.0
        label = "(unattributed)" if name == OP else name
        lines.append(
            f"{label:<22} {totals[name] / ops:>11.3f} {share:>8.1f} "
            f"{calls.get(name, 0) / max(1, counted_ops):>12.0f}"
        )
    return lines
