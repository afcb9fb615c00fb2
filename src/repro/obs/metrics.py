"""Thread-safe metrics: counters, gauges, fixed-bucket latency histograms.

One :class:`MetricsRegistry` holds every instrument, keyed by metric name plus
a sorted label set (``server_requests_total{verb="analyze"}``).  The process
default is :data:`NULL_REGISTRY` -- every instrument lookup returns one shared
no-op object, so the instrumentation seams baked into the server, store,
registry and procpool cost almost nothing until :func:`install_default` (or
:func:`set_registry`) swaps in a real registry.  The server does exactly that
on construction, which is what feeds its ``metrics`` verb (JSON snapshot or
Prometheus text exposition; see ``docs/protocol.md`` and
``docs/observability.md``).

Histograms use fixed bucket upper bounds (default: latency-shaped, 1ms..10s)
and estimate quantiles by walking the cumulative counts to the containing
bucket, then interpolating linearly inside it -- the observed min and max
bound the open-ended edge buckets, so estimates never leave the observed
range.  That gives p50/p95/p99 with bounded error and O(buckets) memory,
which is what the SLO work needs from ``BENCH_server.json``.

:meth:`MetricsRegistry.record_stage_stats` folds the solver's existing
:class:`~repro.core.solver.SolveStats` record into the registry
(``solver_stage_seconds_total{stage=...}`` and friends) so the per-stage
telemetry keeps flowing through its existing call sites while also appearing
in the unified snapshot.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: stamped into snapshots; bump on layout change.
METRICS_FORMAT = "repro-metrics-v1"

#: default histogram bucket upper bounds, in seconds: latency-shaped,
#: log-ish spaced from 1ms to 10s (an implicit +inf bucket catches the rest).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, in-flight count)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution with interpolated quantile estimation.

    ``buckets`` are the finite upper bounds; an implicit +inf bucket catches
    everything above the last bound.  ``observe`` is O(buckets) worst case
    (linear scan -- bucket lists are short and the scan beats bisect overhead
    at this size); memory is O(buckets) regardless of observation count.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing and non-empty")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``); ``None`` when empty.

        Walks cumulative bucket counts to the containing bucket and
        interpolates linearly within it.  The first bucket's lower edge is the
        observed min (not 0) and the +inf bucket's upper edge is the observed
        max, so the estimate is always within ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            if self._min == self._max:
                # Degenerate distributions -- a single sample, or many equal
                # ones: the quantile IS the observed value.  Short-circuit
                # before bucket walking so no interpolation can ever invent a
                # value outside what was observed.
                return self._min
            target = q * self._count
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    # Bucket edges, clamped to the observed range so estimates
                    # for sparse/edge buckets stay honest.
                    lo = self.bounds[i - 1] if i > 0 else self._min
                    hi = self.bounds[i] if i < len(self.bounds) else self._max
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return lo
                    fraction = (target - cumulative) / bucket_count
                    return lo + (hi - lo) * fraction
                cumulative += bucket_count
            return self._max  # pragma: no cover - unreachable (target <= count)

    def percentiles(self) -> Dict[str, Optional[float]]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95), "p99": self.quantile(0.99)}

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        snap = {
            "type": "histogram",
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": [
                {"le": bound, "count": counts[i]} for i, bound in enumerate(self.bounds)
            ] + [{"le": "+inf", "count": counts[-1]}],
        }
        snap.update(self.percentiles())
        return snap


class _NullInstrument:
    """Shared stand-in for every instrument when metrics are disabled."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def percentiles(self) -> Dict[str, None]:
        return {"p50": None, "p95": None, "p99": None}

    def snapshot(self) -> Dict[str, object]:
        return {"type": "null"}


_NULL_INSTRUMENT = _NullInstrument()

LabelPairs = Tuple[Tuple[str, str], ...]


def _key(name: str, labels: Mapping[str, object]) -> Tuple[str, LabelPairs]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create instrument store with JSON and Prometheus views."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}

    def _get(self, factory, name: str, labels: Mapping[str, object]):
        key = _key(name, labels)
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = self._metrics[key] = factory()
            return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        instrument = self._get(Counter, name, labels)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{name} is already a {type(instrument).__name__}")
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        instrument = self._get(Gauge, name, labels)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{name} is already a {type(instrument).__name__}")
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: object
    ) -> Histogram:
        instrument = self._get(lambda: Histogram(buckets), name, labels)
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{name} is already a {type(instrument).__name__}")
        return instrument

    def record_stage_stats(self, stage_stats: Mapping[str, object]) -> None:
        """Fold one :meth:`SolveStats.to_json` record into the registry.

        Stage seconds land in ``solver_stage_seconds_total{stage=...}``; the
        SCC and failure tallies in ``solver_sccs_solved_total`` /
        ``solver_worker_failed_total``.  Additive, so per-request records
        accumulate into process-lifetime totals.
        """
        for stage in ("shapes", "graph", "saturate", "simplify", "sketch", "codec"):
            seconds = float(stage_stats.get(f"{stage}_seconds", 0.0) or 0.0)
            if seconds:
                self.counter("solver_stage_seconds_total", stage=stage).inc(seconds)
        sccs = int(stage_stats.get("sccs_timed", 0) or 0)
        if sccs:
            self.counter("solver_sccs_solved_total").inc(sccs)
        failed = int(stage_stats.get("worker_failed", 0) or 0)
        if failed:
            self.counter("solver_worker_failed_total").inc(failed)

    def snapshot(self) -> Dict[str, object]:
        """Every instrument, keyed by its rendered name, sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            "format": METRICS_FORMAT,
            "metrics": {
                _render_key(name, labels): instrument.snapshot()
                for (name, labels), instrument in items
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters/gauges/histogram series)."""
        with self._lock:
            items = sorted(self._metrics.items())
        types_emitted = set()
        lines: List[str] = []
        for (name, labels), instrument in items:
            if isinstance(instrument, Histogram):
                if name not in types_emitted:
                    lines.append(f"# TYPE {name} histogram")
                    types_emitted.add(name)
                snap = instrument.snapshot()
                cumulative = 0
                for bucket in snap["buckets"]:
                    cumulative += bucket["count"]
                    le = bucket["le"] if bucket["le"] != "+inf" else "+Inf"
                    pairs = labels + (("le", str(le)),)
                    lines.append(f"{_render_key(name + '_bucket', pairs)} {cumulative}")
                lines.append(f"{_render_key(name + '_sum', labels)} {snap['sum']}")
                lines.append(f"{_render_key(name + '_count', labels)} {snap['count']}")
            else:
                kind = "counter" if isinstance(instrument, Counter) else "gauge"
                if name not in types_emitted:
                    lines.append(f"# TYPE {name} {kind}")
                    types_emitted.add(name)
                lines.append(f"{_render_key(name, labels)} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullRegistry:
    """The default registry: every instrument is one shared no-op."""

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: object
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def record_stage_stats(self, stage_stats: Mapping[str, object]) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"format": METRICS_FORMAT, "metrics": {}}

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()

_registry: object = NULL_REGISTRY


def get_registry():
    """The process-wide registry (default: :data:`NULL_REGISTRY`, a no-op)."""
    return _registry


def set_registry(registry) -> object:
    """Install ``registry`` (``None`` restores the null registry); returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else NULL_REGISTRY
    return previous


def install_default() -> MetricsRegistry:
    """Ensure the process default is a real registry and return it.

    Idempotent: a real registry already installed is kept (servers sharing a
    process share one registry -- snapshots are process-wide, so tests assert
    deltas, not absolute counts).
    """
    global _registry
    if not getattr(_registry, "enabled", False):
        _registry = MetricsRegistry()
    return _registry
