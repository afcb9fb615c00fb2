"""The metrics registry: instruments, quantile estimation, rendering.

The histogram's percentile math is property-tested: whatever latencies go
in, the estimates must stay inside the observed range, respect quantile
monotonicity, and agree exactly with the bucket bookkeeping — those are the
invariants `BENCH_server.json` and the server's ``metrics`` verb rely on.
"""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    METRICS_FORMAT,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    install_default,
    set_registry,
)

latencies = st.lists(
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


# ---------------------------------------------------------------------------
# Counter / gauge basics
# ---------------------------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.snapshot() == {"type": "counter", "value": 3.5}


def test_gauge_moves_both_ways():
    gauge = Gauge()
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3
    assert gauge.snapshot() == {"type": "gauge", "value": 3}


def test_counter_thread_safety():
    counter = Counter()

    def bump():
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 8000


# ---------------------------------------------------------------------------
# Histogram properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(values=latencies)
def test_histogram_bookkeeping_matches_observations(values):
    hist = Histogram()
    for value in values:
        hist.observe(value)
    assert hist.count == len(values)
    assert math.isclose(hist.sum, sum(values), rel_tol=1e-9, abs_tol=1e-12)
    snap = hist.snapshot()
    assert sum(bucket["count"] for bucket in snap["buckets"]) == len(values)
    assert snap["min"] == min(values)
    assert snap["max"] == max(values)


@settings(max_examples=200, deadline=None)
@given(values=latencies, q=st.floats(min_value=0.0, max_value=1.0))
def test_histogram_quantile_stays_in_observed_range(values, q):
    hist = Histogram()
    for value in values:
        hist.observe(value)
    estimate = hist.quantile(q)
    assert estimate is not None
    assert min(values) - 1e-12 <= estimate <= max(values) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    values=latencies,
    q1=st.floats(min_value=0.0, max_value=1.0),
    q2=st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_quantiles_are_monotone(values, q1, q2):
    if q1 > q2:
        q1, q2 = q2, q1
    hist = Histogram()
    for value in values:
        hist.observe(value)
    assert hist.quantile(q1) <= hist.quantile(q2) + 1e-12


def test_histogram_exact_at_known_distribution():
    hist = Histogram(buckets=(0.1, 1.0, 10.0))
    for value in (0.2, 0.4, 0.6, 0.8):
        hist.observe(value)
    # One bucket (0.1, 1.0] holds all four samples; its edges clamp to the
    # observed [0.2, 0.8], so the median interpolates to the true midpoint.
    assert hist.quantile(0.5) == pytest.approx(0.5)
    assert hist.percentiles()["p99"] <= 0.8


def test_histogram_empty_and_validation():
    hist = Histogram()
    assert hist.quantile(0.5) is None
    assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}
    with pytest.raises(ValueError):
        hist.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))


@given(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_single_sample_quantile_is_the_sample(value, q):
    """One observation: every quantile IS that observation -- p99 of a single
    sample must equal the sample, never an interpolation past it."""
    hist = Histogram()
    hist.observe(value)
    assert hist.quantile(q) == value
    assert all(v == value for v in hist.percentiles().values())


@given(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_degenerate_distribution_quantile_is_the_value(value, count, q):
    """All-equal observations collapse to the value for every quantile."""
    hist = Histogram()
    for _ in range(count):
        hist.observe(value)
    assert hist.quantile(q) == value


def test_latency_summary_edge_cases():
    """The benchmark's summary helper mirrors the histogram's edge behavior:
    count=0 yields None percentiles (never a crash), and a single sample's
    p50/p95/p99 all equal the sample."""
    import importlib.util
    import pathlib

    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "bench_server_throughput.py"
    )
    spec = importlib.util.spec_from_file_location("bench_server_throughput", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    empty = bench.latency_summary([])
    assert empty["count"] == 0
    assert empty["mean_seconds"] is None
    assert empty["p50"] is None and empty["p95"] is None and empty["p99"] is None

    single = bench.latency_summary([0.123])
    assert single["count"] == 1
    assert single["mean_seconds"] == pytest.approx(0.123)
    assert single["p50"] == single["p95"] == single["p99"] == 0.123
    assert single["min_seconds"] == single["max_seconds"] == 0.123


def test_histogram_overflow_bucket():
    hist = Histogram(buckets=(1.0,))
    hist.observe(50.0)
    snap = hist.snapshot()
    assert snap["buckets"][-1] == {"le": "+inf", "count": 1}
    assert hist.quantile(0.99) == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


def test_registry_get_or_create_is_identity_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("requests_total", verb="analyze")
    b = registry.counter("requests_total", verb="analyze")
    c = registry.counter("requests_total", verb="query")
    assert a is b and a is not c
    a.inc()
    snap = registry.snapshot()
    assert snap["format"] == METRICS_FORMAT
    assert snap["metrics"]['requests_total{verb="analyze"}']["value"] == 1
    assert snap["metrics"]['requests_total{verb="query"}']["value"] == 0


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_folds_solve_stats():
    registry = MetricsRegistry()
    registry.record_stage_stats(
        {
            "shapes_seconds": 0.125,
            "graph_seconds": 0.5,
            "saturate_seconds": 1.0,
            "simplify_seconds": 0.0,
            "sketch_seconds": 0.25,
            "sccs_timed": 7,
            "worker_failed": 2,
        }
    )
    registry.record_stage_stats({"graph_seconds": 0.5, "sccs_timed": 3})
    metrics = registry.snapshot()["metrics"]
    assert metrics['solver_stage_seconds_total{stage="shapes"}']["value"] == 0.125
    assert metrics['solver_stage_seconds_total{stage="graph"}']["value"] == 1.0
    assert metrics['solver_stage_seconds_total{stage="saturate"}']["value"] == 1.0
    assert 'solver_stage_seconds_total{stage="simplify"}' not in metrics
    assert metrics["solver_sccs_solved_total"]["value"] == 10
    assert metrics["solver_worker_failed_total"]["value"] == 2


def test_prometheus_rendering_is_cumulative():
    registry = MetricsRegistry()
    registry.counter("requests_total", verb="analyze").inc(3)
    hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    text = registry.render_prometheus()
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{verb="analyze"} 3.0' in text
    assert "# TYPE latency_seconds histogram" in text
    # Prometheus buckets are cumulative; ours are stored per-bucket.
    assert 'latency_seconds_bucket{le="0.1"} 1' in text
    assert 'latency_seconds_bucket{le="1.0"} 2' in text
    assert 'latency_seconds_bucket{le="+Inf"} 3' in text
    assert "latency_seconds_count 3" in text


# ---------------------------------------------------------------------------
# Process default: the null registry and install_default
# ---------------------------------------------------------------------------


def test_null_registry_is_inert():
    assert NULL_REGISTRY.enabled is False
    instrument = NULL_REGISTRY.counter("anything", verb="x")
    instrument.inc()
    instrument.observe(1.0)
    assert instrument is NULL_REGISTRY.histogram("other")
    assert NULL_REGISTRY.snapshot() == {"format": METRICS_FORMAT, "metrics": {}}
    assert NULL_REGISTRY.render_prometheus() == ""


def test_install_default_is_idempotent():
    previous = set_registry(None)  # force the null default
    try:
        first = install_default()
        assert first.enabled and get_registry() is first
        assert install_default() is first  # a real registry is kept
    finally:
        set_registry(previous)
