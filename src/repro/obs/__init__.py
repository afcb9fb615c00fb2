"""Observability: structured span tracing + process-wide metrics registry.

Two stdlib-only pillars (see ``docs/observability.md``):

* :mod:`repro.obs.trace` -- nested spans across solver stages, service drivers,
  procpool workers (stitched through the JSON codec) and server verbs, with
  JSONL and Chrome trace-event exports;
* :mod:`repro.obs.metrics` -- thread-safe counters/gauges/histograms with
  p50/p95/p99 estimation, exposed by the server's ``metrics`` verb.

:func:`checkpoint` marks the end of one unit of analysis work, where a
thread waiting for the interpreter (the server's event loop) may run.

Both default to shared no-op singletons so the disabled path stays near free.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    get_registry,
    install_default,
    set_registry,
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "checkpoint",
    "get_registry",
    "get_tracer",
    "install_default",
    "load_jsonl",
    "set_registry",
    "set_tracer",
    "tracing",
]
