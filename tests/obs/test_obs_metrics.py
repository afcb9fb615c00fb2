"""Metric rows: histogram quantile estimation and the two renderings.

The histogram's percentile math is property-tested: whatever latencies go
in, the estimates must stay inside the observed range, respect quantile
monotonicity, and agree exactly with the bucket bookkeeping — those are the
invariants `BENCH_server.json` and the server's ``metrics`` verb rely on.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import METRICS_FORMAT, Histogram
from repro.obs.metrics import render_prometheus, snapshot

latencies = st.lists(
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


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
# Rendering rows
# ---------------------------------------------------------------------------


def test_snapshot_keys_rows_by_rendered_name():
    latency = Histogram()
    latency.observe(0.2)
    rows = [
        ("requests_total", {"verb": "query"}, "counter", 0),
        ("requests_total", {"verb": "analyze"}, "counter", 1),
        ("errors_total", {"verb": "query", "code": "unknown_program"}, "counter", 2),
        ("queue_depth", {}, "gauge", 3),
        ("latency_seconds", {"verb": "analyze"}, "histogram", latency),
    ]
    snap = snapshot(rows)
    assert snap["format"] == METRICS_FORMAT
    metrics = snap["metrics"]
    # Sorted by name, then by label pairs; labels render sorted by key.
    assert list(metrics) == [
        'errors_total{code="unknown_program",verb="query"}',
        'latency_seconds{verb="analyze"}',
        "queue_depth",
        'requests_total{verb="analyze"}',
        'requests_total{verb="query"}',
    ]
    assert metrics['requests_total{verb="analyze"}'] == {"type": "counter", "value": 1.0}
    assert metrics['requests_total{verb="query"}'] == {"type": "counter", "value": 0.0}
    assert metrics["queue_depth"] == {"type": "gauge", "value": 3.0}
    assert metrics['latency_seconds{verb="analyze"}'] == latency.snapshot()
    assert snapshot([]) == {"format": METRICS_FORMAT, "metrics": {}}
    assert render_prometheus([]) == ""


def test_service_folds_solve_stats_into_lifetime_totals():
    """Concurrent analyses on one service each merge their record exactly once."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.gen import GenProfile, generate_program
    from repro.service import AnalysisService, ServiceConfig

    programs = [generate_program(seed, GenProfile.smoke()).compile().program for seed in (3, 4)]
    service = AnalysisService(ServiceConfig(use_cache=False))  # every analysis solves
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = list(pool.map(service.analyze, programs * 6, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    total = service.solve_stats()
    assert total.sccs_timed == sum(r.stats["stage_seconds"]["sccs_timed"] for r in runs) > 0
    for stage in ("shapes", "graph", "saturate", "simplify", "sketch"):
        assert getattr(total, f"{stage}_seconds") == pytest.approx(
            sum(r.stats["stage_seconds"][f"{stage}_seconds"] for r in runs)
        )
    # A copy: callers cannot disturb the service's record.
    total.sccs_timed = 0
    assert service.solve_stats().sccs_timed > 0


def test_prometheus_rendering_is_cumulative():
    hist = Histogram(buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    rows = [
        ("requests_total", {"verb": "analyze"}, "counter", 3),
        ("latency_seconds", {}, "histogram", hist),
    ]
    text = render_prometheus(rows)
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{verb="analyze"} 3.0' in text
    assert "# TYPE latency_seconds histogram" in text
    # Prometheus buckets are cumulative; ours are stored per-bucket.
    assert 'latency_seconds_bucket{le="0.1"} 1' in text
    assert 'latency_seconds_bucket{le="1.0"} 2' in text
    assert 'latency_seconds_bucket{le="+Inf"} 3' in text
    assert "latency_seconds_count 3" in text
