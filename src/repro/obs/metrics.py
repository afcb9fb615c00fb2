"""Metric rows and their two renderings: a JSON snapshot and Prometheus text.

Nothing here holds state.  Each count lives with the object that owns the
event it counts (the server's per-verb counters, the program registry, the
summary store, the process pool, the service's lifetime ``SolveStats``), and
the server's ``metrics`` verb reads them into *rows* when it is called (see
``docs/protocol.md`` and ``docs/observability.md``).  A row is
``(name, labels, kind, value)``: ``labels`` a mapping, ``kind`` one of
``"counter"``, ``"gauge"`` or ``"histogram"``, and ``value`` a number or,
for a histogram, a :class:`Histogram`.  :func:`snapshot` renders rows as the
``repro-metrics-v1`` JSON layout and :func:`render_prometheus` as the text
exposition.

Histograms use fixed bucket upper bounds (default: latency-shaped, 1ms..10s)
and estimate quantiles by walking the cumulative counts to the containing
bucket, then interpolating linearly inside it -- the observed min and max
bound the open-ended edge buckets, so estimates never leave the observed
range.  That gives p50/p95/p99 with bounded error and O(buckets) memory,
which is what the SLO work needs from ``BENCH_server.json``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

#: stamped into snapshots; bump on layout change.
METRICS_FORMAT = "repro-metrics-v1"

#: default histogram bucket upper bounds, in seconds: latency-shaped,
#: log-ish spaced from 1ms to 10s (an implicit +inf bucket catches the rest).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


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


LabelPairs = Tuple[Tuple[str, str], ...]

#: one metric sample: (name, labels, "counter" | "gauge" | "histogram", value).
Row = Tuple[str, Mapping[str, object], str, Union[float, Histogram]]


def _render_key(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _sorted_rows(rows: Iterable[Row]) -> List[Tuple[str, LabelPairs, str, object]]:
    """Rows with their labels as sorted string pairs, ordered by (name, labels)."""
    keyed = [
        (name, tuple(sorted((k, str(v)) for k, v in labels.items())), kind, value)
        for name, labels, kind, value in rows
    ]
    keyed.sort(key=lambda row: row[:2])
    return keyed


def snapshot(rows: Iterable[Row]) -> Dict[str, object]:
    """The ``repro-metrics-v1`` JSON layout: every row keyed by its rendered name."""
    metrics: Dict[str, object] = {}
    for name, labels, kind, value in _sorted_rows(rows):
        key = _render_key(name, labels)
        if kind == "histogram":
            metrics[key] = value.snapshot()
        else:
            metrics[key] = {"type": kind, "value": float(value)}
    return {"format": METRICS_FORMAT, "metrics": metrics}


def render_prometheus(rows: Iterable[Row]) -> str:
    """Prometheus text exposition (counters/gauges/histogram series)."""
    types_emitted = set()
    lines: List[str] = []
    for name, labels, kind, value in _sorted_rows(rows):
        if name not in types_emitted:
            lines.append(f"# TYPE {name} {kind}")
            types_emitted.add(name)
        if kind != "histogram":
            lines.append(f"{_render_key(name, labels)} {float(value)}")
            continue
        snap = value.snapshot()
        cumulative = 0
        for bucket in snap["buckets"]:
            cumulative += bucket["count"]
            le = bucket["le"] if bucket["le"] != "+inf" else "+Inf"
            pairs = labels + (("le", str(le)),)
            lines.append(f"{_render_key(name + '_bucket', pairs)} {cumulative}")
        lines.append(f"{_render_key(name + '_sum', labels)} {snap['sum']}")
        lines.append(f"{_render_key(name + '_count', labels)} {snap['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
