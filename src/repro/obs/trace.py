"""Structured span tracing: nested, attributed, exportable, stitchable.

One :class:`Tracer` collects **spans** -- named intervals with monotonic
durations, wall-clock anchors and key/value attributes -- from every layer of
the pipeline: per-function constraint generation (``typegen.constraints``),
per-SCC solving and its stages (``solver.solve_scc``, ``solver.graph``,
``solver.saturate``, ``solver.simplify``, ``solver.sketch``), the service
drivers (``service.analyze``, ``service.constraint_gen``, ``service.solve``,
``service.invalidate``), corpus fan-out (``procpool.fanout``,
``procpool.analyze_program``) and the server's request verbs
(``server.<verb>``).  The full span-name table lives in
``docs/observability.md`` and ``docs/paper-map.md``.

Design constraints, in order:

* **near-zero disabled overhead** -- the process default is :data:`NULL_TRACER`,
  whose ``span()`` returns one shared no-op context manager; instrumentation
  seams stay in the hot core but cost two attribute lookups and an empty
  enter/exit when tracing is off (gated <2% on the suite workload by
  ``benchmarks/bench_simplification.py::test_noop_obs_overhead_gate``);
* **correct nesting under concurrency** -- each thread has its own span stack,
  so concurrent server requests nest under their own request span, never a
  sibling's.  Event-loop code (the server) uses detached spans
  (:meth:`Tracer.start_span`/:meth:`Tracer.finish`) because interleaved
  coroutines share one thread and must not share a stack;
* **cross-boundary stitching** -- :meth:`Tracer.current_context` captures the
  active span as a small JSON-able dict; :meth:`Tracer.attach` re-parents a
  worker thread under it, and worker *processes* build their own tracer from
  the context shipped through the procpool codec and return finished spans for
  :meth:`Tracer.adopt` to merge, so one exported trace covers every worker.

Exports: :meth:`Tracer.export_jsonl` (one span per line, self-describing
header) and :meth:`Tracer.chrome_trace`/:meth:`Tracer.export_chrome` -- the
Chrome trace-event JSON array format, loadable in Perfetto or
``chrome://tracing`` (``python -m repro analyze prog.c --trace-out
trace.json`` end to end).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: stamped into JSONL headers and adopted-span payloads; bump on layout change.
TRACE_FORMAT = "repro-trace-v1"


class Span:
    """One open interval; finished spans are stored as plain dicts."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start", "duration", "pid", "tid", "attrs", "_t0")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        trace_id: str,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.attrs = attrs
        # Wall clock anchors the span on a timeline comparable across
        # processes; the monotonic clock measures the duration (immune to
        # clock steps).
        self.start = time.time()
        self._t0 = time.perf_counter()
        self.duration = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attrs[key] = value

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "ts": self.start,
            "dur": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }


class _SpanHandle:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self.span = self._tracer._open(self._name, self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self.span)
        return False


class _RemoteParent:
    """A stack frame standing in for a span that lives elsewhere.

    Pushed by :meth:`Tracer.attach` so spans opened on this thread parent
    under a span owned by another thread, coroutine or process.  Never
    recorded itself.
    """

    __slots__ = ("span_id",)

    def __init__(self, span_id: str) -> None:
        self.span_id = span_id


class _AttachHandle:
    __slots__ = ("_tracer", "_context", "_frame")

    def __init__(self, tracer: "Tracer", context: Optional[Mapping[str, object]]) -> None:
        self._tracer = tracer
        self._context = context
        self._frame: Optional[_RemoteParent] = None

    def __enter__(self) -> None:
        if self._context and self._context.get("span_id"):
            self._frame = _RemoteParent(str(self._context["span_id"]))
            self._tracer._stack().append(self._frame)
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._frame is not None:
            stack = self._tracer._stack()
            if stack and stack[-1] is self._frame:
                stack.pop()
            else:  # pragma: no cover - unbalanced unwind
                try:
                    stack.remove(self._frame)
                except ValueError:
                    pass
        return False


class Tracer:
    """Thread-safe span collector with per-thread nesting stacks."""

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._lock = threading.Lock()
        self._finished: List[Dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- span lifecycle --------------------------------------------------------

    def _stack(self) -> List[object]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """``with tracer.span("solver.saturate", scc="f,g") as span: ...``"""
        return _SpanHandle(self, name, attrs)

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            span_id=f"{os.getpid():x}.{next(self._ids):x}",
            parent_id=parent_id,
            trace_id=self.trace_id,
            attrs=attrs,
        )
        stack.append(span)
        return span

    def start_span(
        self, name: str, parent_id: Optional[str] = None, **attrs: object
    ) -> Span:
        """A *detached* span: recorded on :meth:`finish`, never stacked.

        For event-loop code where interleaved coroutines share one thread: a
        detached span cannot accidentally become the parent of an unrelated
        request's spans.  Pass its ``span_id`` (via :meth:`attach` or the
        procpool codec) to parent work done elsewhere under it.
        """
        return Span(
            name=name,
            span_id=f"{os.getpid():x}.{next(self._ids):x}",
            parent_id=parent_id,
            trace_id=self.trace_id,
            attrs=dict(attrs),
        )

    def finish(self, span: Span) -> None:
        """Close a span (stacked or detached) and record it."""
        span.duration = time.perf_counter() - span._t0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced unwind
            stack.remove(span)
        with self._lock:
            self._finished.append(span.to_json())

    # -- cross-thread / cross-process stitching --------------------------------

    def current_context(self) -> Optional[Dict[str, object]]:
        """The active span as a JSON-able parenting context (or ``None``)."""
        stack = self._stack()
        if not stack:
            return None
        return {"format": TRACE_FORMAT, "trace_id": self.trace_id, "span_id": stack[-1].span_id}

    def context_for(self, span: Span) -> Dict[str, object]:
        """A parenting context for one specific (e.g. detached) span."""
        return {"format": TRACE_FORMAT, "trace_id": self.trace_id, "span_id": span.span_id}

    def attach(self, context: Optional[Mapping[str, object]]) -> _AttachHandle:
        """Parent spans opened on *this* thread under a foreign span.

        ``context`` is what :meth:`current_context`/:meth:`context_for`
        produced (possibly on another thread or in another process); ``None``
        attaches nothing and costs nothing.
        """
        return _AttachHandle(self, context)

    def adopt(self, spans: Iterable[Mapping[str, object]]) -> int:
        """Merge finished spans recorded by another tracer (e.g. a worker).

        Span/parent ids are preserved verbatim -- worker-side ids embed the
        worker's pid, so they cannot collide with parent-side ids -- which is
        what stitches a worker's ``procpool.analyze_program`` spans under the
        driver's ``procpool.fanout`` span in the exported trace.
        """
        rows = [dict(span) for span in spans]
        with self._lock:
            self._finished.extend(rows)
        return len(rows)

    # -- inspection / export ---------------------------------------------------

    def spans(self) -> List[Dict[str, object]]:
        """All finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def export_jsonl(self, path: str) -> str:
        """One self-describing header line, then one span JSON object per line."""
        rows = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            header = {"format": TRACE_FORMAT, "trace_id": self.trace_id, "spans": len(rows)}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")
        return path

    def chrome_trace(self) -> Dict[str, object]:
        """The trace as Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

        Complete ``"X"`` events on the real pid/tid tracks, timestamps in
        microseconds relative to the earliest span, plus ``process_name``
        metadata distinguishing the driver process from procpool workers.
        ``args`` carries the span/parent ids and all attributes, so the
        parent-child structure survives even across pid tracks.
        """
        rows = self.spans()
        origin = min((row["ts"] for row in rows), default=0.0)
        own_pid = os.getpid()
        events: List[Dict[str, object]] = []
        pids = set()
        for row in sorted(rows, key=lambda r: (r["ts"], r["dur"])):
            pids.add(row["pid"])
            args = dict(row["attrs"])
            args["span_id"] = row["span_id"]
            if row["parent_id"]:
                args["parent_id"] = row["parent_id"]
            events.append(
                {
                    "name": row["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": (row["ts"] - origin) * 1e6,
                    "dur": row["dur"] * 1e6,
                    "pid": row["pid"],
                    "tid": row["tid"],
                    "args": args,
                }
            )
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro" if pid == own_pid else f"repro-worker-{pid}"},
            }
            for pid in sorted(pids)
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"format": TRACE_FORMAT, "trace_id": self.trace_id},
        }

    def export_chrome(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True, default=str)
        return path


def load_jsonl(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Read a file written by :meth:`Tracer.export_jsonl`: (header, spans)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} JSONL trace")
    return header, [json.loads(line) for line in lines[1:]]


# ---------------------------------------------------------------------------
# The disabled path: one shared no-op of everything
# ---------------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()
    span_id = None

    def set(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The default tracer: every operation is a shared no-op."""

    enabled = False
    trace_id = None

    def span(self, name: str, **attrs: object) -> _NullHandle:
        return _NULL_HANDLE

    def start_span(self, name: str, parent_id: Optional[str] = None, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span: object) -> None:
        pass

    def attach(self, context: Optional[Mapping[str, object]]) -> _NullHandle:
        return _NULL_HANDLE

    def current_context(self) -> None:
        return None

    def context_for(self, span: object) -> None:
        return None

    def adopt(self, spans: Iterable[Mapping[str, object]]) -> int:
        return 0

    def spans(self) -> List[Dict[str, object]]:
        return []


NULL_TRACER = NullTracer()

_tracer: object = NULL_TRACER


def get_tracer():
    """The process-wide tracer (default: :data:`NULL_TRACER`, a no-op)."""
    return _tracer


def set_tracer(tracer) -> object:
    """Install ``tracer`` (``None`` restores the null tracer); returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous


class _TracingScope:
    """``with tracing() as tracer: ...`` -- install, run, restore."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer or Tracer()

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


def tracing(tracer: Optional[Tracer] = None) -> _TracingScope:
    """Enable tracing for a scope and restore the previous tracer after."""
    return _TracingScope(tracer)


def checkpoint() -> None:
    """End of one unit of analysis work: let a waiting thread run.

    CPython lets a thread that runs Python code keep the interpreter lock
    for the whole switch interval (``sys.getswitchinterval()``, 5 ms by
    default) before a waiting thread may take it.  The type-query server
    runs analyses on an executor thread that shares the interpreter with
    its event loop, so a request that arrives during a cold analysis would
    wait up to that long at every handoff.  ``os.sched_yield()`` releases
    the lock around the system call and gives up the CPU, so a waiting
    thread gets the interpreter within ~0.1 ms; uncontended a call costs
    ~0.5 us.  (``time.sleep(0)`` also hands the lock over, but costs ~55 us
    a call on Python 3.11.)

    Python 3.9's ``os.sched_yield`` keeps the lock: there a checkpoint
    costs as little and gains nothing.  Where ``os`` has no
    ``sched_yield``, it does nothing.

    Call it between units of at least ~30 us of work, so the yields stay a
    small share of the analysis (the sites are listed in DESIGN.md).  A
    deadline or work budget for one analysis would be checked here too.
    """
    _yield()


_yield = getattr(os, "sched_yield", lambda: None)
