"""Observability: structured span tracing + metric rows.

Two stdlib-only pillars (see ``docs/observability.md``):

* :mod:`repro.obs.trace` -- nested spans across solver stages, service drivers,
  procpool workers (stitched through the JSON codec) and server verbs, with
  JSONL and Chrome trace-event exports;
* :mod:`repro.obs.metrics` -- fixed-bucket histograms with p50/p95/p99
  estimation, and the JSON and Prometheus renderings of the metric rows the
  server's ``metrics`` verb reads from the objects that own each count.

:func:`checkpoint` marks the end of one unit of analysis work, where a
thread waiting for the interpreter (the server's event loop) may run.

The tracer defaults to a shared no-op singleton so the disabled path stays
near free.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_FORMAT,
    Histogram,
)
from repro.obs.trace import (
    TRACE_FORMAT,
    NullTracer,
    NULL_TRACER,
    Span,
    Tracer,
    checkpoint,
    get_tracer,
    load_jsonl,
    set_tracer,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_FORMAT",
    "TRACE_FORMAT",
    "Histogram",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "checkpoint",
    "get_tracer",
    "load_jsonl",
    "set_tracer",
    "tracing",
]
